import collections
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
    # (s, k) -> number of scalar count series summed
    calls = collections.Counter()
    core = stfpoisson._core_pmf

    def counted(p, s, k, cfg):
        calls[s, k] += 1
        return core(p, s, k, cfg)

    monkeypatch.setattr(stfpoisson, "_core_pmf", counted)
    return calls


def test_pmf_at_horizon_sums_each_count_series_once(core_calls):
    # at t == T the running and held branches read one terminal series
    params = StfpParams(alpha=0.8, nu=0.6, lam=1.0, T=1.5, rho=0.4)
    core, rho, frac = stfpoisson._core_pmf, params.rho, F_stfp(params, params.T)
    want = []
    for k in range(13):
        val = (1.0 - rho) * core(params, params.T, k, DEFAULT_CONFIG)
        if k == 0:
            val += rho * (1.0 - frac)
        val += rho * frac * core(params, params.T, k, DEFAULT_CONFIG)
        want.append(val)
    core_calls.clear()
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
    # the tables at t and T share the terminal series; the quadrature sums
    # its 882 stencil points on the array route, not through _core_pmf
    params = StfpParams(alpha=0.8, nu=0.6, lam=1.0, T=1.0, rho=0.4)
    residual = governing_residual(params, 0.5, 3, method=method)
    assert core_calls == {(s, j): 1 for s in (0.5, 1.0) for j in range(4)}
    assert residual <= (1e-6 if method == "series" else 1e-3)


def test_count_series_failure_messages_pinned():
    with pytest.raises(CancellationLoss) as exc:
        pmf(StfpParams(alpha=1.0, nu=1.0, lam=40.0, T=1.0, rho=0.3), 1.0, 3)
    assert str(exc.value) == (
        "count series (k=0, s=1.0): max term 1.48e+16 dwarfs sum -104; "
        "result has no trustworthy digits"
    )
    with pytest.raises(NonConvergent) as exc:
        pmf(StfpParams(alpha=0.8, nu=0.6, lam=1.0, T=1.0, rho=0.3), 0.5, 3,
            cfg=SpecfunConfig(max_terms=3))
    assert str(exc.value) == (
        "count series (k=0, s=0.5): no convergence within 3 terms (partial sum 0.656677)"
    )


def _series_outcome(fn):
    # hex of every entry, or the refusal raised
    try:
        return [x.hex() for x in fn()]
    except (CancellationLoss, NonConvergent, OverflowError) as exc:
        return f"{type(exc).__name__}: {exc}"


# stencil-like points: s = 0, then geometric from deep inside (0, 1] to 1
SERIES_POINTS = np.concatenate([[0.0], np.geomspace(1e-9, 1.0, 300)])


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
        # math.exp overflows on a term before the stop rule fires
        (StfpParams(alpha=0.8, nu=0.5, lam=300.0, T=1.0), 0, DEFAULT_CONFIG, np.array([1.0, 0.5])),
    ],
)
def test_count_series_many_points_match_scalar_route(params, k, cfg, s):
    # the quadrature's many-point route against the scalar route pmf tables
    # use, point by point in order: same bits, or the same refusal
    want = _series_outcome(lambda: [stfpoisson._core_pmf(params, x, k, cfg) for x in s.tolist()])
    assert _series_outcome(lambda: stfpoisson._core_pmf_many(params, s, k, cfg)) == want


def test_count_series_many_points_without_scalar_route(monkeypatch):
    # alpha=0.8, nu=0.6, lam=3 is accepted at s=0.2 and 0.5 and refused at
    # s=1.0; the refusal is unreachable through governing_residual, whose
    # stencil reaches s=1.0 only at t=1, where the table at t refuses first
    params = StfpParams(alpha=0.8, nu=0.6, lam=3.0, T=1.0)
    s = np.array([0.2, 0.5, 1.0])
    with pytest.raises(CancellationLoss) as exc:
        stfpoisson._core_pmf_many(params, s, 1, DEFAULT_CONFIG)
    assert str(exc.value) == (
        "pmf entry k=1 at s=1.0 carries absolute error ~1.06e-12; "
        "no trustworthy digits at probability scale"
    )
    want = [stfpoisson._core_pmf(params, x, 1, DEFAULT_CONFIG).hex() for x in (0.2, 0.5)]
    # accepted points are summed on the array route alone
    monkeypatch.setattr(stfpoisson, "_core_pmf", None)
    got = stfpoisson._core_pmf_many(params, s[:2], 1, DEFAULT_CONFIG)
    assert [x.hex() for x in got] == want


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
    # series-free route: integrate the assembled pmf's derivative directly
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
        governing_residual(p, 0.5, 1, R=0)
    with pytest.raises(DomainError):
        governing_residual(p, 0.5, 1, method="midpoint")
