import hashlib
import itertools
import math
import sys
import threading
from fractions import Fraction

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


def cov_reference(batch: PathBatch, s: float, t: float) -> Estimate:
    """empirical_cov path by path in exact rationals, rounded once at the end."""
    x = [batch.path(i).count_at(s) for i in range(batch.n_paths)]
    y = [batch.path(i).count_at(t) for i in range(batch.n_paths)]
    n, m = len(x), len(x) - 1
    sx, sy, sxy = sum(x), sum(y), sum(a * b for a, b in zip(x, y))
    loo = [Fraction((sxy - a * b) * m - (sx - a) * (sy - b), m * (m - 1)) for a, b in zip(x, y)]
    mean = sum(loo) / n
    var = Fraction(n - 1, n) * sum((v - mean) ** 2 for v in loo)
    return Estimate(value=float(Fraction(sxy * n - sx * sy, n * m)), stderr=math.sqrt(float(var)))


def hex_estimate(est: Estimate) -> tuple[str, str]:
    return est.value.hex(), est.stderr.hex()


def batch_from_pools(pools: list[np.ndarray], common: np.ndarray, horizon: float = 1.0) -> PathBatch:
    offsets = np.zeros(len(pools) + 1, dtype=np.int64)
    np.cumsum([len(p) for p in pools], out=offsets[1:])
    times = np.concatenate(pools) if pools else np.zeros(0)
    return PathBatch(horizon=horizon, offsets=offsets, times=times, common=common)


# a hand-built batch with empty pools between the full ones
HAND_BATCH = PathBatch(
    horizon=1.0,
    offsets=np.array([0, 0, 2, 2, 3, 3], dtype=np.int64),
    times=np.array([0.0, 0.7, 1.0]),
    common=np.zeros(5, dtype=bool),
)


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

    def test_path_refuses_index_outside_batch(self):
        cfg = stfp_sim_config(classical(1.0, 0.3), seed=1, n_paths=5)
        batch = simulate_paths(cfg)
        for i in (-1, 5):
            with pytest.raises(DomainError, match=rf"^path index {i} outside \[0, 5\)$"):
                batch.path(i)
        assert batch.path(4) == sample_path(cfg, 4)

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

    @pytest.mark.parametrize("s, t", [(0.0, 0.7), (0.3, 1.0), (0.7, 0.3), (1.0, 1.0)])
    def test_cov_hand_batch_is_exact(self, s, t):
        assert hex_estimate(empirical_cov(HAND_BATCH, s, t)) == hex_estimate(cov_reference(HAND_BATCH, s, t))

    def test_cov_simulated_batch_is_exact(self):
        batch = simulate_paths(stfp_sim_config(classical(2.0, 0.4), seed=515, n_paths=1500))
        for s, t in ((0.3, 0.7), (0.9, 0.2), (0.5, 1.0)):
            got = empirical_cov(batch, s, t)
            assert hex_estimate(got) == hex_estimate(cov_reference(batch, s, t))
            assert got.value != 0.0 and got.stderr > 0.0

    def test_cov_wide_grid_is_exact(self, monkeypatch):
        # a pool of a few thousand epochs: a dense histogram of the cells would
        # hold millions of entries for 8 paths, so the distinct cells are counted
        rng = np.random.default_rng(8)
        sizes = (0, 1, 3, 2_999, 3_000, 7, 0, 40)
        pools = [np.sort(rng.random(v)) for v in sizes]
        batch = batch_from_pools(pools, np.zeros(len(pools), dtype=bool))
        calls = []
        unique = np.unique
        monkeypatch.setattr(np, "unique", lambda *a, **kw: calls.append(a) or unique(*a, **kw))
        for s, t in ((0.25, 0.8), (0.8, 0.25), (0.5, 1.0)):
            assert hex_estimate(empirical_cov(batch, s, t)) == hex_estimate(cov_reference(batch, s, t))
        assert len(calls) == 3

    def test_cov_independent_of_path_order(self):
        batch = simulate_paths(stfp_sim_config(classical(1.0, 0.3), seed=61, n_paths=20_000))
        order = np.random.default_rng(3).permutation(batch.n_paths)
        pools = [batch.times[batch.offsets[i]:batch.offsets[i + 1]] for i in order]
        shuffled = batch_from_pools(pools, batch.common[order])
        for s, t in ((0.3, 0.7), (0.6, 0.6), (0.2, 1.0)):
            assert hex_estimate(empirical_cov(shuffled, s, t)) == hex_estimate(empirical_cov(batch, s, t))

    def test_cov_value_pinned(self):
        # the value's bits are those of the per-path float jackknife it replaced
        batch = simulate_paths(stfp_sim_config(classical(1.0, 0.3), seed=2024, n_paths=20_000))
        assert empirical_cov(batch, 0.3, 0.7).value.hex() == "0x1.4c7f9d9ecc1eep-2"

    def test_cov_requires_enough_paths(self):
        cfg = stfp_sim_config(classical(1.0, 0.0), seed=3, n_paths=2)
        with pytest.raises(DomainError):
            empirical_cov(simulate_paths(cfg), 0.2, 0.5)

    def test_counts_at_matches_per_path_count(self):
        batch = simulate_paths(stfp_sim_config(classical(1.0, 0.3), seed=11, n_paths=300))
        assert (batch.pool_sizes() == 0).any()
        for b in (batch, HAND_BATCH):
            for t in (0.0, 0.3, 0.7, b.horizon):
                got = b.counts_at(t)
                assert got.dtype == np.int64
                want = [b.path(i).count_at(t) for i in range(b.n_paths)]
                assert got.tolist() == want

    def test_counts_at_rejects_outside_horizon(self):
        cfg = stfp_sim_config(classical(1.0, 0.0), seed=3, n_paths=10)
        with pytest.raises(DomainError):
            simulate_paths(cfg).counts_at(1.5)
        for s, t in ((0.2, 1.5), (-0.1, 0.5), (math.nan, 0.5)):
            with pytest.raises(DomainError):
                empirical_cov(simulate_paths(cfg), s, t)


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


CONFIG_FIELDS = ["seed", "n_paths", "rho", "horizon", "count_cdf", "epoch_power"]


def sim_config(**fields) -> SimConfig:
    kwargs = dict(seed=1, n_paths=10, rho=0.0, horizon=1.0, count_cdf=np.array([0.4, 1.0]), epoch_power=1.0)
    if "count_cdf" in fields and np.ndim(fields["count_cdf"]) == 0:  # a scalar stands for the first entry
        fields["count_cdf"] = np.array([fields["count_cdf"], 1.0])
    return SimConfig(**{**kwargs, **fields})


@pytest.mark.parametrize("field", CONFIG_FIELDS)
def test_sim_config_rejects_nan(field):
    with pytest.raises(DomainError):
        sim_config(**{field: math.nan})


@pytest.mark.parametrize("field", CONFIG_FIELDS)
def test_sim_config_rejects_inf(field):
    with pytest.raises(DomainError):
        sim_config(**{field: math.inf})


@pytest.mark.parametrize("fields", [
    dict(seed=1.5), dict(seed=2.0), dict(seed=2**64), dict(n_paths=100.0), dict(n_paths=0),
    dict(epoch_power=-1.0), dict(epoch_power=0.0), dict(epoch_power=-math.inf),
    dict(count_cdf=[0.7, 0.2, 1.0]), dict(count_cdf=[]), dict(count_cdf=[-0.1, 1.0]),
    dict(count_cdf=np.ones((2, 2))), dict(count_cdf=[0.5, -math.inf]),
])
def test_sim_config_rejects_wrong_inputs(fields):
    # each of these once gave a batch: seed 1.5 the bytes of seed 1, epoch power -1 epochs past the
    # horizon, a decreasing cdf wrong pool sizes
    with pytest.raises(DomainError):
        sim_config(**fields)


def test_sim_config_accepts_cumsum_rounding():
    # np.cumsum may leave the last entry, or a run of entries after the mass is spent, above 1
    cdf = np.cumsum([1 / 9] * 9 + [0.0])
    assert cdf[-2] == cdf[-1] > 1.0
    cfg = sim_config(seed=np.int64(2**63 - 1), n_paths=np.int64(50), count_cdf=cdf, epoch_power=0.5)
    assert simulate_paths(cfg).pool_sizes().max() <= 8
    # a one-entry table, given as a list: every pool is empty
    assert not simulate_paths(sim_config(count_cdf=[1.0])).pool_sizes().any()


def count_lookup_builds(monkeypatch) -> list:
    """A list that gains an entry each time a config builds its pool-size lookup."""
    builds = []
    bucket_sizes = mcsim._bucket_sizes
    monkeypatch.setattr(mcsim, "_bucket_sizes", lambda cuts: builds.append(cuts) or bucket_sizes(cuts))
    return builds


def batch_bytes(batch: PathBatch) -> tuple[bytes, bytes, bytes]:
    return batch.times.tobytes(), batch.offsets.tobytes(), batch.common.tobytes()


class TestBlocks:
    """A batch is drawn in blocks of mcsim._BLOCK paths on a thread per CPU;
    its bytes depend on neither."""

    @pytest.mark.parametrize("block", [1, 7, 4096])
    @pytest.mark.parametrize("name", sorted(PINNED_BATCHES))
    def test_output_pinned_at_any_block_size(self, monkeypatch, name, block):
        monkeypatch.setattr(mcsim, "_BLOCK", block)
        make, times, offsets, common = PINNED_BATCHES[name]
        batch = simulate_paths(make())
        assert (sha256(batch.times), sha256(batch.offsets), sha256(batch.common)) == (
            times, offsets, common
        )

    @pytest.mark.parametrize("workers", [1, 3])
    def test_worker_count_leaves_bytes(self, monkeypatch, workers):
        # 150,000 paths span three default blocks
        cfg = negbin_sim_config(NEGBIN_SIM, seed=9, n_paths=150_000)
        default = simulate_paths(cfg)
        monkeypatch.setattr(mcsim, "_workers", lambda: workers)
        threads = threading.active_count()
        assert batch_bytes(simulate_paths(cfg)) == batch_bytes(default)
        assert threading.active_count() == threads  # no thread outlives the call

    def test_many_workers_with_fast_thread_switches(self, monkeypatch):
        # more workers than CPUs on small blocks, switching threads every microsecond: each block
        # moves only its own offsets, and the pool-size lookup is built once, before the workers start
        make, times, offsets, common = PINNED_BATCHES["negbin"]
        cfg = make()
        builds = count_lookup_builds(monkeypatch)
        monkeypatch.setattr(mcsim, "_workers", lambda: 5)
        monkeypatch.setattr(mcsim, "_BLOCK", 257)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            batch = simulate_paths(cfg)
        finally:
            sys.setswitchinterval(interval)
        assert (sha256(batch.times), sha256(batch.offsets), sha256(batch.common)) == (times, offsets, common)
        assert len(builds) == 1

    def test_sample_path_matches_rows_across_blocks(self, monkeypatch):
        monkeypatch.setattr(mcsim, "_BLOCK", 4096)
        cfg = negbin_sim_config(NEGBIN_SIM, seed=3, n_paths=10_000)
        batch = simulate_paths(cfg)
        for i in (4095, 4096, cfg.n_paths - 1):
            assert sample_path(cfg, i) == batch.path(i)

    def test_path_sums_at_any_block_size(self, monkeypatch):
        # counts and the covariance cells are summed a block of paths at a time
        batch = simulate_paths(negbin_sim_config(NEGBIN_SIM, seed=4, n_paths=3_000))
        cases = [(batch, t) for t in (0.0, 0.4, 0.9)] + [(HAND_BATCH, t) for t in (0.0, 0.7, 0.99)]
        want = [b.counts_at(t) for b, t in cases], hex_estimate(empirical_cov(batch, 0.3, 0.8))
        for block in (1, 2, 7, 4096):
            monkeypatch.setattr(mcsim, "_BLOCK", block)
            got = [b.counts_at(t) for b, t in cases], hex_estimate(empirical_cov(batch, 0.3, 0.8))
            assert all(g.dtype == np.int64 and np.array_equal(g, w) for g, w in zip(got[0], want[0]))
            assert got[1] == want[1]

    @pytest.mark.parametrize("lam, rho", [(0.05, 0.3), (1.5, 1.0)])
    def test_blocks_of_empty_or_common_pools(self, monkeypatch, lam, rho):
        # blocks of 7 paths whose pools are all empty (lam = 0.05) or all
        # common (rho = 1): neither leaves the owner or sort step anything
        cfg = stfp_sim_config(classical(lam, rho), seed=6, n_paths=2_000)
        default = simulate_paths(cfg)
        monkeypatch.setattr(mcsim, "_BLOCK", 7)
        batch = simulate_paths(cfg)
        assert batch_bytes(batch) == batch_bytes(default)
        sizes = batch.pool_sizes()[: 7 * (2_000 // 7)].reshape(-1, 7)
        if rho == 1.0:
            assert batch.common.all() and (sizes >= 2).any()
        else:
            assert (sizes == 0).all(axis=1).any()
        assert_sorted_within_paths(batch)
        for i in (0, 6, 7, 1_999):
            assert sample_path(cfg, i) == batch.path(i)


BUCKET = 1 << mcsim._BUCKET_SHIFT
TOP = 2**53 - 1  # the largest 53-bit word


def edge_words(cuts: np.ndarray) -> np.ndarray:
    """Every bucket edge and every cut, each with its two neighbours, as 53-bit words."""
    marks = np.concatenate([np.arange(2**53 // BUCKET + 1, dtype=np.uint64) * np.uint64(BUCKET), cuts])
    words = np.concatenate([marks - np.uint64(1), marks, marks + np.uint64(1), [np.uint64(TOP)]])
    return np.unique(words[words <= TOP])  # marks - 1 wraps at 0, past the top


class TestPoolSizeLookup:
    """The bucketed lookup returns np.searchsorted(cuts, w, side="right") for every word w."""

    @pytest.mark.parametrize("cuts", [
        [3 * BUCKET, 4 * BUCKET, 4 * BUCKET + 1],  # cuts on and just past bucket edges
        [0, 0, 7, 7, 7, 2**52, 2**52],  # duplicates from zero-probability entries
        [2**52, TOP, 2**53, 2**53 + 2],  # last cuts at and past 2^53, from a cdf above 1
        [],  # a one-entry table has no cut
        [BUCKET - 1, BUCKET, BUCKET + 1, 4095 * BUCKET],
    ])
    def test_lookup_matches_searchsorted(self, cuts):
        cuts = np.array(cuts, dtype=np.uint64)
        words = edge_words(cuts)
        got = np.empty(len(words), dtype=np.int64)
        mcsim._pool_sizes(cuts, mcsim._bucket_sizes(cuts), words, got)
        assert np.array_equal(got, np.searchsorted(cuts, words, side="right"))

    @pytest.mark.parametrize("make", [
        lambda: negbin_sim_config(NEGBIN_SIM, seed=1, n_paths=10),
        lambda: stfp_sim_config(classical(1.0, 0.3), seed=1, n_paths=10),
        lambda: sim_config(count_cdf=np.array([0.0, 0.25, 0.25, 0.5 + 2**-53, 1.0, 1.0 + 2**-52, 1.0 + 2**-52])),
    ])
    def test_config_lookup_matches_searchsorted(self, make):
        cfg = make()
        cuts, buckets = cfg._pool_lookup
        assert np.array_equal(cuts, np.ceil(np.asarray(cfg.count_cdf)[:-1] * 2.0**53).astype(np.uint64))
        assert buckets.shape == (4096,) and (buckets < 0).sum() <= len(cuts)
        words = edge_words(cuts)
        got = np.empty(len(words), dtype=np.int64)
        mcsim._pool_sizes(cuts, buckets, words, got)
        assert np.array_equal(got, np.searchsorted(cuts, words, side="right"))

    def test_negbin_table_has_65_entries(self):
        assert len(negbin_sim_config(NEGBIN_SIM, seed=1, n_paths=10).count_cdf) == 65

    def test_lookup_built_once_per_config(self, monkeypatch):
        builds = count_lookup_builds(monkeypatch)
        cfg = negbin_sim_config(NEGBIN_SIM, seed=3, n_paths=200_000)
        first = sample_path(cfg, 5)
        assert sample_path(cfg, 5) == first and len(builds) == 1
        assert simulate_paths(cfg).path(5) == first and len(builds) == 1  # several blocks, on threads


class TestPoolOrdering:
    """Pools of 2-4 epochs are ordered by compare-exchange networks, larger ones by np.sort."""

    @staticmethod
    def ordered(pools: list[np.ndarray], common: list[bool]) -> tuple[np.ndarray, np.ndarray]:
        batch = batch_from_pools(pools, np.array(common))
        times = batch.times.copy()
        mcsim._order_pools(times, batch.offsets, batch.common)
        want = np.concatenate([p if c else np.sort(p) for p, c in zip(pools, common)] or [np.zeros(0)])
        return times, want

    @pytest.mark.parametrize("v", [2, 3, 4])
    def test_networks_sort_every_order(self, v):
        # every permutation of v values with a tie and a 0.0, and every 0/1 sequence: a network
        # that sorts all of the latter sorts any input
        values = [0.0, 0.0, 0.5, 0.75][:v] if v > 2 else [0.0, 0.3]
        pools = [np.array(p) for p in itertools.permutations(values)]
        pools += [np.array(bits, dtype=np.float64) for bits in itertools.product((0.0, 1.0), repeat=v)]
        times, want = self.ordered(pools, [False] * len(pools))
        assert times.tobytes() == want.tobytes()

    def test_mixed_pools_match_np_sort(self):
        rng = np.random.default_rng(21)
        pools, common = [], []
        for _ in range(400):
            v = int(rng.integers(0, 9))
            ties = rng.integers(0, 3, v) / 2.0  # 0.0, 0.5 and 1.0, so ties are common
            pools.append(np.where(rng.random(v) < 0.5, ties, rng.random(v)))
            common.append(bool(rng.random() < 0.1))
            if common[-1]:
                pools[-1][:] = pools[-1][:1]  # a common pool repeats one epoch
        sizes = {len(p) for p, c in zip(pools, common) if not c}
        assert sizes >= set(range(9))
        times, want = self.ordered(pools, common)
        assert times.tobytes() == want.tobytes()
