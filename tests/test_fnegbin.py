import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from fraccount import fnegbin
from fraccount.errors import (
    CancellationLoss,
    CountingProcessError,
    DomainError,
    InvalidProfile,
    NonConvergent,
    OutOfRange,
    UnsupportedR,
)
from fraccount.fnegbin import (
    STIRLING_CAP,
    Example31Profile,
    F_negbin,
    NegBinParams,
    TableProfile,
    operator_residual_prop33,
    pgf_negbin,
    pmf_negbin_r1,
)
from fraccount.pmftable import _branch_table, _live_levels
from fraccount.specfun import _CORE_ABS_GUARD, _EPS
from fraccount.stfpoisson import StfpParams

import _frozen as FR

PROFILE = Example31Profile(lambda_mix=0.6)


def mk(alpha, nu, rho, r=1, p=0.4, T=1.0):
    return NegBinParams(p=p, r=r, alpha=alpha, nu=nu, rho=rho, T=T, q_profile=PROFILE)


# ---- profiles and parameter validation ----

def test_example31_profile_shape():
    prof = Example31Profile(lambda_mix=0.6)
    assert prof.value(0.0, 1.0) == 1.0
    assert prof.value(1.0, 1.0) == pytest.approx(0.4, rel=1e-15)
    assert prof.value(0.5, 1.0) == pytest.approx(0.4 / 0.7, rel=1e-15)
    with pytest.raises(DomainError):
        Example31Profile(lambda_mix=0.0)
    with pytest.raises(DomainError):
        Example31Profile(lambda_mix=1.0)


def test_table_profile_validation():
    TableProfile(points=((0.0, 1.0), (0.5, 0.7), (1.0, 0.4)))
    with pytest.raises(InvalidProfile):
        TableProfile(points=((0.0, 1.0),))
    with pytest.raises(InvalidProfile):
        TableProfile(points=((0.0, 1.0), (0.5, 0.8), (0.4, 0.6)))  # times not increasing
    with pytest.raises(InvalidProfile):
        TableProfile(points=((0.0, 0.8), (0.5, 0.9), (1.0, 0.4)))  # increases
    with pytest.raises(InvalidProfile):
        TableProfile(points=((0.0, 1.0), (1.0, 0.0)))  # leaves (0,1]


def test_table_profile_interpolates():
    prof = TableProfile(points=((0.0, 1.0), (0.5, 0.7), (1.0, 0.4)))
    assert prof.value(0.25, 1.0) == pytest.approx(0.85, rel=1e-14)
    assert prof.value(0.75, 1.0) == pytest.approx(0.55, rel=1e-14)
    params = NegBinParams(
        p=0.4, r=1, alpha=0.8, nu=0.5, rho=0.0, T=1.0, q_profile=prof
    )
    assert params.q(0.5) == pytest.approx(0.7, rel=1e-15)


def test_params_validation():
    for bad in (
        dict(p=0.0),
        dict(p=1.0),
        dict(r=0),
        dict(alpha=0.0),
        dict(nu=1.5),
        dict(rho=-0.1),
        dict(T=0.0),
    ):
        kw = dict(p=0.4, r=1, alpha=0.8, nu=0.5, rho=0.3, T=1.0, q_profile=PROFILE)
        kw.update(bad)
        with pytest.raises(DomainError):
            NegBinParams(**kw)


def test_params_reject_infinite_horizon():
    with pytest.raises(DomainError, match="horizon must be positive"):
        NegBinParams(p=0.4, r=1, alpha=0.8, nu=0.5, rho=0.3, T=math.inf, q_profile=PROFILE)


def test_params_reject_inconsistent_horizon():
    # schedule ends at 0.4, so p must be 0.4
    with pytest.raises(InvalidProfile):
        NegBinParams(p=0.5, r=1, alpha=0.8, nu=0.5, rho=0.3, T=1.0, q_profile=PROFILE)
    # a sampled schedule that ends before the horizon has no q(T)
    short = TableProfile(points=((0.0, 1.0), (0.5, 0.4)))
    with pytest.raises(InvalidProfile) as exc:
        NegBinParams(p=0.4, r=1, alpha=0.8, nu=0.5, rho=0.3, T=1.0, q_profile=short)
    assert str(exc.value) == "t=1.0 outside sampled range [0.0, 0.5]"


@pytest.mark.parametrize("call", [
    lambda: pmf_negbin_r1(mk(0.8, 0.5, 0.3), 1.5, 10),
    lambda: pgf_negbin(mk(0.8, 0.5, 0.3), 1.5, 0.5),
], ids=["pmf", "pgf"])
def test_time_past_the_horizon_is_refused(call):
    with pytest.raises(DomainError) as exc:
        call()
    assert str(exc.value) == "t=1.5 outside [0, 1.0]"


# ---- activation profile F ----

def test_F_is_linear_for_paired_profile():
    params = mk(0.8, 0.5, 0.3)
    for t in (0.0, 0.25, 0.5, 0.75, 1.0):
        assert F_negbin(params, t) == pytest.approx(t, abs=1e-12)


def test_F_roundtrip_reconstructs_schedule():
    params = mk(0.8, 0.5, 0.3)
    for t in (0.1, 0.4, 0.8):
        f = F_negbin(params, t)
        q_back = 1.0 / (1.0 + (1.0 / params.p - 1.0) * f)
        assert q_back == pytest.approx(params.q(t), rel=1e-12)


def test_table_profile_level_past_one_reads_as_one():
    # a sample up to the tolerance above 1 is the level 1, not a success
    # probability past it: no epoch has fallen and the law is a point mass
    prof = TableProfile(points=((0.0, 1.0 + 5e-13), (1.0, 0.3)))
    assert prof.points == ((0.0, 1.0), (1.0, 0.3))
    params = NegBinParams(p=0.3, r=1, alpha=0.8, nu=0.8, rho=0.0, T=1.0, q_profile=prof)
    assert F_negbin(params, 0) == 0.0
    assert pgf_negbin(params, 0, 3.0) == 1.0


def test_level_within_the_tolerance_of_p_reads_as_p(monkeypatch):
    # a schedule ending 5e-13 below p: q(T) is p, so F(T) = 1 and the held
    # branch reads the running one, one level summed
    near = NegBinParams(p=0.3, r=1, alpha=0.8, nu=0.6, rho=0.4, T=1.0,
                        q_profile=TableProfile(points=((0.0, 1.0), (1.0, 0.3 - 5e-13))))
    exact = replace(near, q_profile=TableProfile(points=((0.0, 1.0), (1.0, 0.3))))
    assert near.q(1.0) == 0.3 and F_negbin(near, 1.0) == 1.0
    levels = []
    real = fnegbin._core_pmf
    monkeypatch.setattr(fnegbin, "_core_pmf", lambda lv, *args: levels.append(list(lv)) or real(lv, *args))
    assert pmf_negbin_r1(near, 1.0, 40).probs == pmf_negbin_r1(exact, 1.0, 40).probs
    assert levels == [[0.3], [0.3]]
    # an interior level within the tolerance
    interior = TableProfile(points=((0.0, 1.0), (0.5, 0.3 + 5e-13), (1.0, 0.3)))
    assert replace(exact, q_profile=interior).q(0.5) == 0.3


def test_table_profile_refuses_a_time_outside_its_samples():
    prof = TableProfile(points=((0.0, 1.0), (1.0, 0.3)))
    for t in (-0.5, 1.5, math.nan):
        with pytest.raises(InvalidProfile, match="outside sampled range"):
            prof.value(t, 1.0)


def test_F_rejects_schedule_not_starting_at_one():
    prof = TableProfile(points=((0.0, 0.9), (1.0, 0.4)))
    params = NegBinParams(p=0.4, r=1, alpha=0.8, nu=0.5, rho=0.0, T=1.0, q_profile=prof)
    with pytest.raises(InvalidProfile):
        F_negbin(params, 0.5)


# ---- pgf ----

def test_pgf_normalization_exact():
    assert pgf_negbin(mk(0.8, 0.5, 0.3), 0.5, 1.0) == 1.0


def test_pgf_geometric_reduction():
    params = mk(1.0, 1.0, 0.0)
    qt = params.q(0.5)
    for u in (-0.8, 0.0, 0.3, 0.9):
        want = qt / (1.0 - (1.0 - qt) * u)
        assert pgf_negbin(params, 0.5, u) == pytest.approx(want, rel=1e-12)


def test_pgf_held_branch_at_time_zero():
    params = mk(0.7, 0.9, 1.0)
    for u in (-1.0, 0.0, 0.5, 2.0):
        assert pgf_negbin(params, 0.0, u) == pytest.approx(1.0, rel=1e-15)


def test_pgf_radius_enforced():
    params = mk(0.8, 0.5, 0.3)
    with pytest.raises(DomainError):
        pgf_negbin(params, 0.5, 1.0 / 0.6 + 0.01)  # beyond terminal radius
    uncoupled = mk(0.8, 0.5, 0.0)
    qt = uncoupled.q(0.5)
    pgf_negbin(uncoupled, 0.5, 1.0 / 0.6 + 0.01)  # fine: running radius is wider
    with pytest.raises(DomainError):
        pgf_negbin(uncoupled, 0.5, 1.0 / (1.0 - qt) + 0.01)


def test_pgf_shape_two_decomposition():
    # shape 2 must equal the mixture built from squared single-shape cores
    al, nu, rho, t = 0.8, 0.5, 0.4, 0.5
    got = pgf_negbin(mk(al, nu, rho, r=2), t, 0.3)
    base = mk(al, nu, 0.0)
    f = F_negbin(base, t)
    want = (
        (1.0 - rho) * pgf_negbin(base, t, 0.3) ** 2
        + rho * (1.0 - f)
        + rho * f * pgf_negbin(base, 1.0, 0.3) ** 2
    )
    assert got == pytest.approx(want, rel=1e-14)


# ---- pmf ----

def test_pmf_matches_frozen_grid():
    for (al, nu, rho), vals in FR.NEGBIN_PMF_GRID.items():
        tbl = pmf_negbin_r1(mk(al, nu, rho), 0.5, 6)
        for k, want in enumerate(vals):
            assert tbl[k] == pytest.approx(want, rel=1e-5), (al, nu, rho, k)


def test_pmf_geometric_reduction():
    params = mk(1.0, 1.0, 0.0)
    qt = params.q(0.5)
    tbl = pmf_negbin_r1(params, 0.5, 30)
    for k in range(31):
        assert tbl[k] == pytest.approx(qt * (1.0 - qt) ** k, rel=1e-10)
    # near p = 1 the deep count-series powers fall below the normal range
    # and are formed as one exponent with their falling weights
    params = NegBinParams(p=0.999, r=1, alpha=1.0, nu=1.0, rho=0.0, T=1.0,
                          q_profile=Example31Profile(0.001))
    tbl = pmf_negbin_r1(params, 1.0, 80)
    for k in range(81):
        assert tbl[k] == pytest.approx(0.999 * 0.001**k, rel=1e-12)


def test_pmf_zero_count_closed_form():
    # uncoupled k = 0 entry is a single Mittag-Leffler value
    from fraccount.specfun import mittag_leffler

    params = mk(0.6, 0.8, 0.0)
    qt = params.q(0.5)
    want = mittag_leffler(0.8, 1.0, -((-math.log(qt)) ** 0.6)).value
    assert pmf_negbin_r1(params, 0.5, 0)[0] == pytest.approx(want, rel=1e-13)


def test_pmf_normalization_K80():
    for al, nu in ((1.0, 0.5), (1.0, 0.8)):
        tbl = pmf_negbin_r1(mk(al, nu, 0.4), 0.5, 80)
        assert abs(sum(tbl.probs) + tbl.tail_mass - 1.0) <= 1e-8
        assert tbl.tail_mass < 1e-8
    # fractional space index: tail is genuinely heavy but still accounted for
    tbl = pmf_negbin_r1(mk(0.8, 0.5, 0.4), 0.5, 80)
    assert abs(sum(tbl.probs) + tbl.tail_mass - 1.0) <= 1e-8
    assert tbl.tail_mass > 1e-4


def test_pmf_rho_independent_at_horizon():
    tables = [pmf_negbin_r1(mk(0.8, 0.5, rho), 1.0, 6) for rho in (0.0, 0.5, 1.0)]
    for k in range(7):
        assert tables[1][k] == pytest.approx(tables[0][k], abs=1e-12)
        assert tables[2][k] == pytest.approx(tables[0][k], abs=1e-12)


def test_pgf_pmf_consistency():
    params = mk(0.8, 0.5, 0.4)
    tbl = pmf_negbin_r1(params, 0.5, 120)
    for u in (0.0, 0.3, 0.6):
        series = math.fsum(tbl[k] * u**k for k in range(len(tbl)))
        assert abs(series - pgf_negbin(params, 0.5, u)) <= 1e-6


def test_pmf_shape_two_by_convolution_matches_frozen():
    al, nu, rho = 0.8, 0.5, 0.4
    base = mk(al, nu, 0.0)
    running = pmf_negbin_r1(base, 0.5, 6)
    terminal = pmf_negbin_r1(base, 1.0, 6)

    def selfconv(t):
        return [math.fsum(t[j] * t[k - j] for j in range(k + 1)) for k in range(7)]

    run2, term2 = selfconv(running), selfconv(terminal)
    f = F_negbin(base, 0.5)
    for k in range(7):
        want = (1.0 - rho) * run2[k] + rho * f * term2[k]
        if k == 0:
            want += rho * (1.0 - f)
        assert want == pytest.approx(FR.NEGBIN_PMF_R2[k], rel=1e-5)


def _count_series_calls(monkeypatch):
    # the rate of each count-series call: one call per success level
    calls = []
    real = fnegbin._count_series

    def counted(params, s, ks, **kw):
        calls.append(params.lam)
        return real(params, s, ks, **kw)

    monkeypatch.setattr(fnegbin, "_count_series", counted)
    return calls


@pytest.mark.parametrize("rho, t", [(0.0, 0.5), (0.4, 0.5), (0.4, 1.0)])
def test_pmf_sums_one_count_series_per_level(monkeypatch, rho, t):
    # each live success level reads its entries from one count-series call
    calls = _count_series_calls(monkeypatch)
    pmf_negbin_r1(mk(0.8, 0.5, rho), t, 40)
    assert len(calls) == len(set(calls)) == (2 if (rho > 0.0 and t < 1.0) else 1)


def test_pmf_prefix_is_bit_identical_across_K():
    for rho in (0.0, 0.4):
        short = pmf_negbin_r1(mk(0.8, 0.5, rho), 0.5, 40)
        long = pmf_negbin_r1(mk(0.8, 0.5, rho), 0.5, 80)
        assert long.probs[:41] == short.probs


def test_pmf_small_success_refused_at_same_entry(monkeypatch):
    calls = _count_series_calls(monkeypatch)
    params = NegBinParams(
        p=0.05, r=1, alpha=0.8, nu=0.6, rho=0.4, T=1.0,
        q_profile=Example31Profile(lambda_mix=0.95),
    )
    with pytest.raises(CancellationLoss, match=r"entry k=6 "):
        pmf_negbin_r1(params, 0.5, 40)
    # one count-series call per level
    assert len(calls) <= 2


SMALL_P = dict(p=0.005, r=1, alpha=0.7, nu=0.6, T=1.0, q_profile=Example31Profile(lambda_mix=1.0 - 0.005))


@pytest.mark.parametrize("t, K, running_alone, match", [
    (0.3, 40, CancellationLoss, r"^pmf entry k=4 "),
    (0.1, 200, OutOfRange, r"got 171$"),  # K past the Stirling cap
])
def test_pmf_two_branches_refuse_in_k_order(t, K, running_alone, match):
    # the running branch alone refuses past k = 0, the held one at k = 0:
    # the mixture raises the held branch's k = 0 refusal, the first in
    # (k, running, held) order
    with pytest.raises(running_alone, match=match):
        pmf_negbin_r1(NegBinParams(rho=0.0, **SMALL_P), t, K)
    with pytest.raises(CancellationLoss) as exc:
        pmf_negbin_r1(NegBinParams(rho=0.4, **SMALL_P), t, K)
    assert str(exc.value) == (
        "pmf entry k=0 carries absolute error ~2.49e-12; no trustworthy digits at probability scale")


def _reference_core_pmf(level, alpha, nu, K):
    # the per-k generator of one success level: one math.fsum per sum, each
    # refusal raised when the stream reaches it
    if level >= 1.0:
        yield 1.0
        yield from itertools.repeat(0.0, K)
        return
    n = min(K, STIRLING_CAP) + 1
    big_l, c = -math.log(level), 1.0 - level
    probs, errs = (col[:, 0] for col in fnegbin._count_series(
        StfpParams(alpha, nu, big_l, 1.0), [1.0], range(n), lifted=True))
    w = np.zeros(n)
    w[0], hs = 1.0, np.arange(1, n)
    for k in range(n):
        p = math.fsum((w * probs).tolist())
        err = math.fsum((w * errs).tolist()) + (3 * k + 1) * _EPS * abs(p)
        if err > _CORE_ABS_GUARD:
            raise CancellationLoss(
                f"pmf entry k={k} carries absolute error ~{err:.2e}; "
                "no trustworthy digits at probability scale"
            )
        yield p
        w[1:] = c / (k + 1) * (w[:-1] * hs / big_l + k * w[1:])
        w[0] = 0.0
    if K >= n:
        raise OutOfRange(f"k must be in [0, {STIRLING_CAP}], got {n}")


def _reference_pmf(params, t, K):
    # the branch streams drawn k by k, running first
    rho, qt = params.rho, params.q(t)
    frac = F_negbin(params, t) if rho > 0.0 else 0.0
    live = _live_levels(qt, params.p, frac, rho)
    streams = [_reference_core_pmf(level, params.alpha, params.nu, K) for level in live]
    flat = np.fromiter(itertools.chain.from_iterable(zip(*streams)), float, (K + 1) * len(streams))
    cols = flat.reshape(K + 1, len(streams))
    return _branch_table(dict(zip(live, cols.T)), qt, params.p, frac, rho, K)


def _hex_or_refusal(fn, *args):
    try:
        return [v.hex() for v in fn(*args).probs]
    except (CountingProcessError, ArithmeticError, ValueError) as exc:
        return type(exc).__name__, str(exc)


# q(T) = 0.30000000000000004 is one rounding above p and reads as p: at t = T the held branch reads the running one
ONE_ROUNDING = NegBinParams(p=0.3, r=1, alpha=0.6, nu=0.5, rho=0.0, T=1.0, q_profile=Example31Profile(0.7))


@pytest.mark.parametrize("K", [40, 80, 170])
@pytest.mark.parametrize("rho", [0.0, 0.4, 1.0])
@pytest.mark.parametrize("t", [0.0, 0.5, 1.0])
def test_pmf_matches_the_per_k_reference_bit_for_bit(K, rho, t):
    params = replace(ONE_ROUNDING, rho=rho)
    assert params.q_profile.value(1.0, 1.0) != params.q(1.0) == params.p
    got = _hex_or_refusal(pmf_negbin_r1, params, t, K)
    assert got == _hex_or_refusal(_reference_pmf, params, t, K)
    assert isinstance(got, list)


@pytest.mark.parametrize("rho, t, K", [(0.0, 0.3, 40), (0.4, 0.3, 40), (0.0, 0.1, 200), (0.4, 0.1, 200),
                                       (0.4, 0.0, 200), (0.4, 1.0, 40)])
def test_pmf_refuses_as_the_per_k_reference(rho, t, K):
    # the held branch refused at k = 0 before the running one at k = 4, and
    # OutOfRange past STIRLING_CAP only once every capped entry passes
    params = NegBinParams(rho=rho, **SMALL_P)
    assert _hex_or_refusal(pmf_negbin_r1, params, t, K) == _hex_or_refusal(_reference_pmf, params, t, K)


@pytest.mark.parametrize("running_k0_refused", [False, True])
def test_pmf_held_series_refused_after_the_running_k0_entry(monkeypatch, running_k0_refused):
    # a count series that raises is refused at its branch's k = 0 turn: after
    # the running k = 0 entry, which raises first where it is refused itself
    params = replace(ONE_ROUNDING, rho=0.4)
    real = fnegbin._count_series

    def series(sp, s, ks, **kw):
        if sp.lam == -math.log(params.p):
            raise NonConvergent("held series refused")
        out, bound = real(sp, s, ks, **kw)
        if running_k0_refused:
            bound[0] = 1.0
        return out, bound

    monkeypatch.setattr(fnegbin, "_count_series", series)
    got = _hex_or_refusal(pmf_negbin_r1, params, 0.5, 40)
    assert got == _hex_or_refusal(_reference_pmf, params, 0.5, 40)
    assert got[0] == ("CancellationLoss" if running_k0_refused else "NonConvergent")


def test_pmf_zero_count_held_to_absolute_budget():
    # the k = 0 entry is a Mittag-Leffler sum like any other count series:
    # at p = 0.05, nu = 0.3 its error bound is ~6e-7, so it is refused
    params = NegBinParams(
        p=0.05, r=1, alpha=0.8, nu=0.3, rho=1.0, T=1.0,
        q_profile=Example31Profile(lambda_mix=0.95),
    )
    with pytest.raises(CancellationLoss, match=r"^pmf entry k=0 carries absolute error"):
        pmf_negbin_r1(params, 1.0, 0)


def test_pmf_deep_table_matches_frozen():
    # K = 170 at p = 0.5, heavy-tailed: each entry is a sum of terms of one
    # sign, so the deep entries keep their digits
    params = NegBinParams(
        p=0.5, r=1, alpha=0.6, nu=0.5, rho=0.0, T=1.0, q_profile=Example31Profile(0.5)
    )
    tbl = pmf_negbin_r1(params, 1.0, 170)
    for k, want in FR.NEGBIN_PMF_DEEP.items():
        assert abs(tbl[k] - want) <= 1e-13, k
    # one entry past the Stirling cap is out of range, not a wrong number
    with pytest.raises(OutOfRange, match=r"got 171$"):
        pmf_negbin_r1(params, 1.0, 171)


def test_pmf_held_branch_skipped_at_time_zero():
    # at t = 0 the held branch has weight rho * F(0) = 0 and the law is a
    # point mass at zero, even where the held stream alone would raise
    params = NegBinParams(
        p=0.05, r=1, alpha=0.8, nu=0.6, rho=0.4, T=1.0,
        q_profile=Example31Profile(lambda_mix=0.95),
    )
    assert pmf_negbin_r1(params, 0.0, 40).probs == (1.0,) + (0.0,) * 40


def test_pmf_rejects_other_shapes():
    with pytest.raises(UnsupportedR):
        pmf_negbin_r1(mk(0.8, 0.5, 0.4, r=2), 0.5, 6)


# ---- operator identity residuals ----

def test_operator_identity_classical():
    params = mk(1.0, 1.0, 0.0)
    assert operator_residual_prop33(params, 0.5, 1.0, 1.2) <= 1e-8
    assert operator_residual_prop33(params, 0.5, 0.0, 1.2) <= 1e-8


def test_operator_identity_fractional():
    params = mk(0.5, 0.5, 0.0)
    assert operator_residual_prop33(params, 0.5, 0.0, 1.2) <= 1e-3
    assert operator_residual_prop33(params, 0.5, 1.0, 1.2) <= 1e-3
    params = mk(0.7, 0.7, 0.0)
    assert operator_residual_prop33(params, 0.5, 0.0, 1.5) <= 1e-3
    assert operator_residual_prop33(params, 0.5, 1.0, 1.4) <= 1e-3


def test_operator_boundary_value():
    # the operator's lower limit maps to pgf argument 1, where G is exactly 1
    params = mk(0.5, 0.5, 0.0)
    assert pgf_negbin(params, 0.5, 1.0) == 1.0


def test_operator_identity_preconditions():
    with pytest.raises(DomainError):
        operator_residual_prop33(mk(0.5, 0.7, 0.0), 0.5, 0.0, 1.2)  # indices differ
    with pytest.raises(DomainError):
        operator_residual_prop33(mk(0.5, 0.5, 0.0), 0.5, 0.5, 1.2)  # mixed coupling
    with pytest.raises(DomainError):
        operator_residual_prop33(mk(0.5, 0.5, 0.0), 0.5, 1.0, 0.9)  # u below 1
    with pytest.raises(DomainError):
        operator_residual_prop33(mk(0.5, 0.5, 0.0), 0.5, 1.0, 2.0)  # beyond radius
    with pytest.raises(UnsupportedR):
        operator_residual_prop33(mk(0.5, 0.5, 0.0, r=3), 0.5, 0.0, 1.2)


STAYS_AT_ONE = TableProfile(((0.0, 1.0), (0.5, 1.0), (1.0, 0.3)))  # q = 1 on [0, 0.5]


@pytest.mark.parametrize("index, profile, t", [
    (1.0, Example31Profile(lambda_mix=0.7), 0.0),
    (1.0, Example31Profile(lambda_mix=0.7), 1e-300),  # q(t) rounds to 1
    (0.8, STAYS_AT_ONE, 0.25),
    (0.8, STAYS_AT_ONE, 0.5),
    (0.8, TableProfile(((0.0, 1.0 + 5e-13), (1.0, 0.3))), 0.0),  # a sample past 1 is the level 1
])
def test_operator_identity_refuses_a_running_level_of_one(index, profile, t):
    params = NegBinParams(p=0.3, r=1, alpha=index, nu=index, rho=0.0, T=1.0, q_profile=profile)
    # at rho = 0 the operator acts at the running level q(t); where that is
    # 1 its map a + b z has b = 0, and the refusal names t and q(t)
    with pytest.raises(DomainError) as exc:
        operator_residual_prop33(params, t, 0.0, 1.125)
    assert str(exc.value) == f"identity degenerates at success level 1: q({t})=1.0"
    # rho = 1 acts at p, and where q(t) = 1 no epoch has fallen (F = 0): the
    # residual is 0, as at t = 0
    assert operator_residual_prop33(params, t, 1.0, 1.125) == 0.0
