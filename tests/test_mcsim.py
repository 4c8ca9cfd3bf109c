import hashlib
import math

import mpmath
import numpy as np
import pytest

from fraccount import mcsim
from fraccount.errors import DomainError, TailCutoffUnreachable
from fraccount.fnegbin import Example31Profile, NegBinParams, TableProfile, pmf_negbin_r1
from fraccount.mcsim import (
    DEFAULT_TAIL_CUTOFF,
    Estimate,
    PathBatch,
    PathSample,
    SimConfig,
    build_count_table,
    empirical_cov,
    empirical_joint_11,
    empirical_pmf,
    negbin_sim_config,
    sample_path,
    simulate_paths,
    stfp_sim_config,
    tv_distance,
    wilson_halfwidth,
)
from fraccount.pmftable import PmfTable
from fraccount.stfpoisson import StfpParams, joint_prob_brb, pmf as stfp_pmf
from fraccount.weighted import covariance_corrected


def classical(lam: float, rho: float) -> StfpParams:
    return StfpParams(alpha=1.0, nu=1.0, lam=lam, T=1.0, rho=rho)


def assert_sorted_within_paths(batch: PathBatch) -> None:
    # a descent between neighbouring times may only sit at a path start
    descents = np.flatnonzero(batch.times[1:] < batch.times[:-1]) + 1
    assert np.isin(descents, batch.offsets).all()


def sha256(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


NEGBIN_SIM = NegBinParams(
    p=0.5, r=1, alpha=1.0, nu=0.8, rho=0.4, T=1.0, q_profile=Example31Profile(0.5)
)

# sha256 of (times, offsets, common) for 2*10^4-path batches at seed 2024
PINNED_BATCHES = {
    "stfp": (
        lambda: stfp_sim_config(classical(1.0, 0.3), seed=2024, n_paths=20_000),
        "4c57365e2576d8fe813d188d6797c06f6ef58ec3cd066d96e492d4981eb7886b",
        "991f33b76ae3e6ee200796db881bff1a8ca9021ca57eb997c8b670767be23329",
        "d51b8217d847489cdad42b4e3cfa0a9976a4dc1f40677820b2a42978f12f5d83",
    ),
    "all_common": (
        lambda: stfp_sim_config(classical(1.5, 1.0), seed=2024, n_paths=20_000),
        "62c363b4eacf1e8f2221129eb9cd1da6971ffb1ead245febc6c9d9dc4a14b1af",
        "005b7635ccd0234d551ecf057a7801acdbfb966d04fddaa700e03f46f8aa8ffd",
        "b473271113c7461a8fe3eadb8fb59f95ba13729e8d993d834162c6fdbddeac47",
    ),
    "negbin": (
        lambda: negbin_sim_config(NEGBIN_SIM, seed=2024, n_paths=20_000),
        "ce68b0cefb81598ab9008c991aeba06a257427fcc9993e84131b20bc6a267dc7",
        "3cf1b4a3bee1a86746f8515b41189e3f1a5a5610c608d6e8ba4e4e2553a9f783",
        "56fb5daa8d4831d7e47ef542e0345d30a5e10dfc9bbb42d6aaffe3c8162041a7",
    ),
}


class TestSampling:
    def test_fixed_seed_reproduces_bitwise(self):
        cfg = stfp_sim_config(classical(1.0, 0.3), seed=42, n_paths=2000)
        a, b = simulate_paths(cfg), simulate_paths(cfg)
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.offsets, b.offsets)
        assert np.array_equal(a.common, b.common)

    @pytest.mark.parametrize("name", sorted(PINNED_BATCHES))
    def test_output_pinned(self, name):
        make, times, offsets, common = PINNED_BATCHES[name]
        batch = simulate_paths(make())
        assert batch.offsets.dtype == np.int64
        assert (sha256(batch.times), sha256(batch.offsets), sha256(batch.common)) == (
            times, offsets, common
        )

    @pytest.mark.parametrize("name", sorted(PINNED_BATCHES))
    def test_counts_at_horizon_is_prefix_sum_count(self, name):
        # N(horizon) is read as the pool sizes, without the prefix sum
        batch = simulate_paths(PINNED_BATCHES[name][0]())
        hits = np.zeros(len(batch.times) + 1, dtype=np.int64)
        np.cumsum(batch.times <= batch.horizon, dtype=np.int64, out=hits[1:])
        want = hits[batch.offsets[1:]] - hits[batch.offsets[:-1]]
        got = batch.counts_at(batch.horizon)
        assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_single_path_matches_batch_row(self):
        cfg = stfp_sim_config(classical(0.8, 0.5), seed=7, n_paths=500)
        batch = simulate_paths(cfg)
        for i in (0, 3, 77, 499):
            assert sample_path(cfg, i) == batch.path(i)

    def test_single_path_matches_batch_row_in_sorted_pools(self):
        # rows whose pools had to be sorted: independent, three or more epochs
        cfg = negbin_sim_config(NEGBIN_SIM, seed=3, n_paths=2000)
        batch = simulate_paths(cfg)
        picks = np.flatnonzero(~batch.common & (batch.pool_sizes() >= 3))
        assert len(picks) >= 50 and batch.pool_sizes()[picks].max() >= 6
        for i in (*picks[:8], *picks[-4:], picks[np.argmax(batch.pool_sizes()[picks])]):
            s = sample_path(cfg, int(i))
            assert s == batch.path(int(i))
            assert list(s.event_times) == sorted(s.event_times)

    def test_batch_without_multi_epoch_pools(self):
        cfg = stfp_sim_config(classical(0.05, 0.3), seed=4, n_paths=1)
        batch = simulate_paths(cfg)
        assert batch.n_paths == 1 and batch.pool_sizes().max() <= 1
        assert batch.offsets.tolist() == [0, len(batch.times)]
        assert sample_path(cfg, 0) == batch.path(0)

    def test_different_seeds_differ(self):
        a = simulate_paths(stfp_sim_config(classical(1.0, 0.0), seed=1, n_paths=300))
        b = simulate_paths(stfp_sim_config(classical(1.0, 0.0), seed=2, n_paths=300))
        assert not (
            np.array_equal(a.times, b.times) and np.array_equal(a.offsets, b.offsets)
        )

    def test_epoch_quantile_power_per_family(self):
        # T * y^(alpha/nu) for the space-time family, uniform on [0, T] for negbin
        params = StfpParams(alpha=1.0, nu=0.7, lam=1.0, T=2.0, rho=0.4)
        cfg = stfp_sim_config(params, seed=1, n_paths=10)
        assert (cfg.horizon, cfg.epoch_power) == (2.0, 1.0 / 0.7)
        assert negbin_sim_config(NEGBIN_SIM, seed=1, n_paths=10).epoch_power == 1.0

    def test_full_coupling_collapses_epochs(self):
        cfg = stfp_sim_config(classical(1.5, 1.0), seed=5, n_paths=400)
        batch = simulate_paths(cfg)
        assert batch.common.all()
        for i in range(400):
            s = batch.path(i)
            assert len(set(s.event_times)) <= 1

    def test_no_coupling_never_flags(self):
        cfg = stfp_sim_config(classical(1.0, 0.0), seed=5, n_paths=400)
        assert not simulate_paths(cfg).common.any()

    def test_event_times_sorted_within_horizon(self):
        cfg = stfp_sim_config(
            StfpParams(alpha=1.0, nu=0.7, lam=1.0, T=2.0, rho=0.4), seed=11, n_paths=800
        )
        batch = simulate_paths(cfg)
        assert (~batch.common & (batch.pool_sizes() >= 3)).any()
        assert_sorted_within_paths(batch)
        assert ((batch.times >= 0.0) & (batch.times <= 2.0)).all()
        for b in (simulate_paths(make()) for make, *_ in PINNED_BATCHES.values()):
            assert_sorted_within_paths(b)

    def test_heavy_tail_refused(self):
        with pytest.raises(TailCutoffUnreachable):
            stfp_sim_config(
                StfpParams(alpha=0.6, nu=0.8, lam=1.0, T=1.0, rho=0.0), seed=1, n_paths=10
            )

    def test_table_profile_has_no_quantile(self):
        prof = TableProfile(((0.0, 1.0), (0.5, 0.7), (1.0, 0.4)))
        params = NegBinParams(
            p=0.4, r=1, alpha=1.0, nu=1.0, rho=0.0, T=1.0, q_profile=prof
        )
        with pytest.raises(DomainError):
            negbin_sim_config(params, seed=1, n_paths=10)

    def test_path_sample_invariants(self):
        with pytest.raises(DomainError):
            PathSample(m=2, event_times=(0.5,), common_flag=False)
        with pytest.raises(DomainError):
            PathSample(m=2, event_times=(0.3, 0.5), common_flag=True)

    def test_bad_config_rejected(self):
        cfg = stfp_sim_config(classical(1.0, 0.0), seed=3, n_paths=10)
        with pytest.raises(DomainError):
            sample_path(cfg, 10)
        with pytest.raises(DomainError):
            stfp_sim_config(classical(1.0, 0.0), seed=-1, n_paths=10)


class TestCountTable:
    def test_doubles_until_cutoff(self):
        tbl = build_count_table(lambda K: stfp_pmf(classical(1.0, 0.0), 1.0, K))
        assert tbl.tail_mass <= DEFAULT_TAIL_CUTOFF == 1e-10

    def test_light_tail_built_before_deep_entries(self):
        # the tail is below the cutoff by K=32; deeper entries lose their digits
        params = StfpParams(alpha=1.0, nu=0.5, lam=1.0, T=1.0, rho=0.3)
        tbl = build_count_table(lambda K: stfp_pmf(params, params.T, K))
        assert tbl.tail_mass <= DEFAULT_TAIL_CUTOFF
        stfp_sim_config(params, seed=1, n_paths=10)

    def test_cap_triggers_failure(self, monkeypatch):
        # a flat pmf over many states cannot reach the cutoff under the cap
        def flat(K: int) -> PmfTable:
            return PmfTable.from_probs([1.0 / 4096] * (K + 1))

        monkeypatch.setattr(mcsim, "K_MAX", 512)
        with pytest.raises(TailCutoffUnreachable, match="cap is 512"):
            build_count_table(flat)


class TestEstimators:
    def test_empirical_pmf_matches_analytic(self):
        params = classical(1.0, 0.3)
        cfg = stfp_sim_config(params, seed=20260817, n_paths=200_000)
        emp = empirical_pmf(simulate_paths(cfg), 0.5)
        ana = stfp_pmf(params, 0.5, len(emp.table) - 1)
        assert tv_distance(emp.table, ana) < 5e-3
        for k in range(len(emp.table)):
            assert abs(emp.table[k] - ana[k]) <= 4.0 * emp.halfwidths[k]

    def test_empirical_pmf_mass_is_exactly_one(self):
        cfg = stfp_sim_config(classical(1.0, 0.0), seed=9, n_paths=5000)
        emp = empirical_pmf(simulate_paths(cfg), 0.7)
        assert emp.table.head_mass() == pytest.approx(1.0, abs=1e-12)

    def test_covariance_matches_closed_form(self):
        for (s, t, rho, lam) in ((0.25, 0.5, 1.0, 1.0), (0.2, 0.8, 0.5, 2.0)):
            cfg = stfp_sim_config(classical(lam, rho), seed=777, n_paths=200_000)
            est = empirical_cov(simulate_paths(cfg), s, t)
            want = covariance_corrected(lam, rho, s, t)
            assert isinstance(est, Estimate)
            assert abs(est.value - want) <= 4.0 * est.stderr

    def test_joint_one_one_matches_construction(self):
        cfg = stfp_sim_config(classical(1.0, 0.0), seed=13, n_paths=200_000)
        got = empirical_joint_11(simulate_paths(cfg), 0.5, 1.0)
        want = joint_prob_brb(classical(1.0, 0.0), 0.5)
        se = math.sqrt(want * (1.0 - want) / 200_000)
        assert abs(got - want) <= 3.0 * se

    def test_joint_at_horizon_is_single_bin(self):
        cfg = stfp_sim_config(classical(1.0, 0.4), seed=21, n_paths=20_000)
        batch = simulate_paths(cfg)
        got = empirical_joint_11(batch, 1.0, 1.0)
        emp = empirical_pmf(batch, 1.0)
        assert got == pytest.approx(emp.table[1], abs=1e-15)

    def test_poisson_increment_thinning(self):
        # no coupling, classical case: N(0.5) - N(0.2) is Poisson(0.3*lam)
        cfg = stfp_sim_config(classical(1.0, 0.0), seed=31, n_paths=100_000)
        batch = simulate_paths(cfg)
        inc = batch.counts_at(0.5) - batch.counts_at(0.2)
        mean = float(inc.mean())
        se = float(inc.std(ddof=1)) / math.sqrt(len(inc))
        assert abs(mean - 0.3) <= 4.0 * se

    def test_rho_invariance_at_horizon_chisq(self):
        # same terminal law for rho=0 and rho=1: two-sample chi-square
        n = 100_000
        h0 = np.bincount(
            simulate_paths(stfp_sim_config(classical(1.0, 0.0), 101, n)).counts_at(1.0)
        )
        h1 = np.bincount(
            simulate_paths(stfp_sim_config(classical(1.0, 1.0), 102, n)).counts_at(1.0)
        )
        width = max(len(h0), len(h1))
        h0 = np.pad(h0, (0, width - len(h0)))
        h1 = np.pad(h1, (0, width - len(h1)))
        # merge sparse upper bins so every expected count is >= 5
        cut = width
        while cut > 1 and (h0[cut - 1 :].sum() + h1[cut - 1 :].sum()) / 2 < 5:
            cut -= 1
        a = np.concatenate([h0[: cut - 1], [h0[cut - 1 :].sum()]]).astype(float)
        b = np.concatenate([h1[: cut - 1], [h1[cut - 1 :].sum()]]).astype(float)
        expected = (a + b) / 2.0
        chi2 = float(((a - expected) ** 2 / expected + (b - expected) ** 2 / expected).sum())
        df = len(a) - 1
        pval = float(mpmath.gammainc(df / 2.0, chi2 / 2.0, regularized=True))
        assert pval > 0.001

    def test_negbin_sampler_matches_analytic(self):
        params = NegBinParams(
            p=0.4, r=1, alpha=1.0, nu=1.0, rho=0.5, T=1.0,
            q_profile=Example31Profile(0.6),
        )
        cfg = negbin_sim_config(params, seed=99, n_paths=200_000)
        emp = empirical_pmf(simulate_paths(cfg), 0.5)
        ana = pmf_negbin_r1(params, 0.5, len(emp.table) - 1)
        assert tv_distance(emp.table, ana) < 5e-3

    def test_cov_requires_enough_paths(self):
        cfg = stfp_sim_config(classical(1.0, 0.0), seed=3, n_paths=2)
        with pytest.raises(DomainError):
            empirical_cov(simulate_paths(cfg), 0.2, 0.5)

    def test_counts_at_matches_per_path_count(self):
        batch = simulate_paths(stfp_sim_config(classical(1.0, 0.3), seed=11, n_paths=300))
        assert (batch.pool_sizes() == 0).any()
        hand = PathBatch(
            horizon=1.0,
            offsets=np.array([0, 0, 2, 2, 3, 3], dtype=np.int64),
            times=np.array([0.0, 0.7, 1.0]),
            common=np.zeros(5, dtype=bool),
        )
        for b in (batch, hand):
            for t in (0.0, 0.3, 0.7, b.horizon):
                got = b.counts_at(t)
                assert got.dtype == np.int64
                want = [b.path(i).count_at(t) for i in range(b.n_paths)]
                assert got.tolist() == want

    def test_counts_at_rejects_outside_horizon(self):
        cfg = stfp_sim_config(classical(1.0, 0.0), seed=3, n_paths=10)
        with pytest.raises(DomainError):
            simulate_paths(cfg).counts_at(1.5)


class TestHelpers:
    def test_wilson_halfwidth_known_value(self):
        # p=0.5, n=100, z=1: sqrt(0.25/100 + 1/40000)/(1+0.01)
        want = math.sqrt(0.25 / 100 + 1.0 / 40000) / 1.01
        assert wilson_halfwidth(50, 100) == pytest.approx(want, rel=1e-12)

    def test_wilson_zero_successes_positive_width(self):
        assert wilson_halfwidth(0, 1000) > 0.0

    def test_wilson_rejects_bad_counts(self):
        with pytest.raises(DomainError):
            wilson_halfwidth(5, 4)

    def test_tv_distance_identical_is_zero(self):
        t = PmfTable.from_probs([0.5, 0.3, 0.2])
        assert tv_distance(t, t) == 0.0

    def test_tv_distance_disjoint_is_one(self):
        assert tv_distance([1.0, 0.0], [0.0, 1.0]) == pytest.approx(1.0, abs=1e-15)

    def test_tv_distance_pads_supports(self):
        assert tv_distance([1.0], [0.5, 0.5]) == pytest.approx(0.5, abs=1e-15)


@pytest.mark.parametrize("field", ["rho", "horizon"])
def test_sim_config_rejects_nan(field):
    kwargs = dict(seed=1, n_paths=10, rho=0.0, horizon=1.0, count_cdf=np.array([1.0]), epoch_power=1.0)
    with pytest.raises(DomainError):
        SimConfig(**{**kwargs, field: math.nan})


@pytest.mark.parametrize("field", ["rho", "horizon"])
def test_sim_config_rejects_inf(field):
    kwargs = dict(seed=1, n_paths=10, rho=0.0, horizon=1.0, count_cdf=np.array([1.0]), epoch_power=1.0)
    with pytest.raises(DomainError):
        SimConfig(**{**kwargs, field: math.inf})
