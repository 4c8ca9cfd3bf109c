"""Seeded Monte Carlo for the correlated epoch-pool construction.

A path is a pool of m epochs on [0, horizon]: with probability rho all of
them collapse onto one common epoch, otherwise they are drawn independently
from the epoch law F.  Counting epochs up to time t then reproduces the
three-component mixture law the closed forms describe, which is what the
empirical estimators here cross-check.

Randomness is counter-based: every uniform is a pure function of (seed,
path_index, draw_index).  A batch is drawn in blocks of 2^16 paths on as many
threads as the process has CPUs, with no setting; its bytes depend on neither
the block size nor the thread count.  A block reads pool sizes from a
2^12-bucket table built once per config, mixes its branch and count words as
one flat array and orders pools of 2-4 epochs by compare-exchange networks:
each gives the values a search, a mix and a sort gave, so the bytes are
unchanged.  Aggregation uses integer sums only.  A batch stores each epoch's rank
in its sorted pool: N(t) >= k on as many paths as epochs of rank k - 1 fall by t.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import accumulate, zip_longest
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, TailCutoffUnreachable
from .fnegbin import Example31Profile, NegBinParams, pmf_negbin_r1
from .pmftable import PmfTable
from .stfpoisson import StfpParams, pmf as stfp_pmf

__all__ = [
    "PathSample",
    "PathBatch",
    "SimConfig",
    "Estimate",
    "EmpiricalPmf",
    "build_count_table",
    "stfp_sim_config",
    "negbin_sim_config",
    "sample_path",
    "simulate_paths",
    "empirical_pmf",
    "empirical_cov",
    "empirical_joint_11",
    "wilson_halfwidth",
    "tv_distance",
]

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)

# draw layout per path: counter 0 decides the common-epoch branch, counter 1
# picks the pool size, counters 2,3,... feed the epoch times (a common-branch
# path reads counter 2 once and shares it)
_CTR_BRANCH = 0
_CTR_COUNT = 1
_CTR_TIMES = 2

_BLOCK = 1 << 16  # paths per block: a batch is drawn, and its counts summed, block by block
_BUCKET_SHIFT = np.uint64(53 - 12)  # a 53-bit count word's top 12 bits pick its bucket in the pool-size lookup
# compare-exchange networks that order an independent pool of 2, 3 or 4 epochs
_NETWORKS = {2: ((0, 1),), 3: ((0, 1), (1, 2), (0, 1)), 4: ((0, 1), (2, 3), (0, 2), (1, 3), (1, 2))}
# the splitmix64 shifts and multipliers, then the shift that keeps a word's top 53 bits
_MIX_STEPS = tuple(map(np.uint64, (30, 0xBF58476D1CE4E5B9, 27, 0x94D049BB133111EB, 31, 64 - 53)))
DEFAULT_TAIL_CUTOFF = 1e-10
K_MAX = 10**6


def _mix64(x: np.ndarray) -> np.ndarray:
    # splitmix64 output stage, in place on a uint64 array; arithmetic wraps mod 2^64
    s30, m1, s27, m2, s31, _ = _MIX_STEPS
    x ^= x >> s30
    x *= m1
    x ^= x >> s27
    x *= m2
    x ^= x >> s31
    return x


def _path_keys(seed: int, path_index: np.ndarray) -> np.ndarray:
    """Per-path stream key: draw c of a path mixes key + _draw_offset(c)."""
    key = path_index + np.uint64(1)
    key *= _GOLDEN
    key += np.uint64(seed)
    return _mix64(key)


@cache
def _draw_offset(counter: int) -> np.uint64:
    """What draw `counter` adds to its path key, reduced mod 2^64."""
    return np.uint64(int(_GOLDEN) * (counter + 1) % 2**64)


def _word53(word: np.ndarray) -> np.ndarray:
    """53-bit word from a key-plus-offset word, mixed in place: the uniform word * 2^-53."""
    word = _mix64(word)
    word >>= _MIX_STEPS[-1]
    return word


@dataclass(frozen=True)
class PathSample:
    """One realized path: pool size, sorted epoch times, coupling branch."""

    m: int
    event_times: tuple[float, ...]
    common_flag: bool

    def __post_init__(self) -> None:
        if self.m != len(self.event_times):
            raise DomainError("pool size must match the number of event times")
        if self.common_flag and len(set(self.event_times)) > 1:
            raise DomainError("common-branch path must have a single shared epoch")

    def count_at(self, t: float) -> int:
        return sum(1 for x in self.event_times if x <= t)


@dataclass(frozen=True)
class SimConfig:
    """Everything a run needs: seed, size, coupling weight, horizon, the
    pool-size law as a cumulative table, and the power of the epoch-law
    quantile: a uniform y lands its epoch at horizon * y ** epoch_power."""

    seed: int
    n_paths: int
    rho: float
    horizon: float
    count_cdf: np.ndarray
    epoch_power: float

    def __post_init__(self) -> None:
        if not (isinstance(self.seed, (int, np.integer)) and 0 <= self.seed < 2**64):
            raise DomainError(f"seed must be an integer in 64 unsigned bits, got {self.seed}")
        if not (isinstance(self.n_paths, (int, np.integer)) and self.n_paths > 0):
            raise DomainError(f"need a positive integer path count, got {self.n_paths}")
        if not 0.0 <= self.rho <= 1.0:
            raise DomainError(f"coupling weight must lie in [0,1], got {self.rho}")
        if not 0.0 < self.horizon < math.inf:
            raise DomainError(f"horizon must be positive, got {self.horizon}")
        if not 0.0 < self.epoch_power < math.inf:
            raise DomainError(f"epoch power must be finite and positive, got {self.epoch_power}")
        cdf = np.asarray(self.count_cdf, dtype=np.float64)  # its last entry may round above 1, as np.cumsum leaves it
        if cdf.ndim != 1 or not len(cdf) or not np.isfinite(cdf).all() or cdf[0] < 0 or (np.diff(cdf) < 0).any():
            raise DomainError("pool-size cdf must be a non-empty, finite, non-negative, non-decreasing table")

    @cached_property
    def _pool_lookup(self) -> tuple[np.ndarray, np.ndarray]:
        # the cuts as 53-bit words and the bucket table over them; no cut for the table's last entry: mass
        # past the table is below the cutoff and takes the top size
        cuts = np.ceil(np.asarray(self.count_cdf, dtype=np.float64)[:-1] * 2.0**53).astype(np.uint64)
        return cuts, _bucket_sizes(cuts)


def _bucket_sizes(cuts: np.ndarray) -> np.ndarray:
    """Pool size of every word in each of the 2^12 buckets, or -1 where a cut splits the bucket."""
    first = np.arange(2**12, dtype=np.uint64) << _BUCKET_SHIFT
    lo, hi = np.searchsorted(cuts, [first, first + (first[1] - np.uint64(1))], side="right")
    return np.where(lo == hi, lo, -1)


def _pool_sizes(cuts: np.ndarray, buckets: np.ndarray, count: np.ndarray, out: np.ndarray) -> None:
    """Number of cuts at or below each 53-bit word, into `out`: its bucket's size, unless a cut splits that."""
    buckets.take((count >> _BUCKET_SHIFT).view(np.int64), out=out)
    split = (out < 0).nonzero()[0]
    if len(split):
        out[split] = np.searchsorted(cuts, count[split], side="right")


def build_count_table(pmf_at: Callable[[int], PmfTable]) -> PmfTable:
    """Grow a pool-size table by doubling K until its tail mass is below
    DEFAULT_TAIL_CUTOFF.

    Doubling starts at a small K, so a light-tailed law is accepted before
    its table reaches the deep entries where a series may lose its digits.
    Heavy polynomial tails are projected ahead from the observed decay rate;
    if the projected K exceeds K_MAX the build fails loudly rather than
    simulate a silently truncated law.
    """
    k = 16
    prev_tail = None
    while True:
        table = pmf_at(min(k, K_MAX))
        tail = table.tail_mass
        if tail <= DEFAULT_TAIL_CUTOFF:
            return table
        if k >= K_MAX:
            raise TailCutoffUnreachable(
                f"tail mass {tail:.3e} above cutoff {DEFAULT_TAIL_CUTOFF:.3e} at K={K_MAX}"
            )
        if prev_tail is not None and tail > 0.5 * prev_tail:
            # slower than 1/K decay: project the K needed and bail early
            rate = max(-math.log2(tail / prev_tail), 1e-6)
            log2_projected = math.log2(k) + math.log2(tail / DEFAULT_TAIL_CUTOFF) / rate
            if log2_projected > math.log2(K_MAX):
                raise TailCutoffUnreachable(
                    f"tail decay rate {rate:.3f} projects K≈2^{log2_projected:.1f} "
                    f"to reach cutoff {DEFAULT_TAIL_CUTOFF:.3e}; cap is {K_MAX}"
                )
        prev_tail = tail
        k *= 2


def _sim_config(
    pmf: Callable[..., PmfTable], params: StfpParams | NegBinParams, epoch_power: float, seed: int, n_paths: int
) -> SimConfig:
    table = build_count_table(lambda K: pmf(params, params.T, K))
    return SimConfig(
        seed=seed, n_paths=n_paths, rho=params.rho, horizon=params.T,
        count_cdf=np.cumsum(np.asarray(table.probs, dtype=np.float64)), epoch_power=epoch_power,
    )


def stfp_sim_config(params: StfpParams, seed: int, n_paths: int) -> SimConfig:
    """Simulator setup for the space-time fractional family.

    The pool-size law is the horizon pmf (coupling-independent there); the
    epoch quantile is t = T * y^(alpha/nu).
    """
    expo = params.alpha / params.nu
    return _sim_config(stfp_pmf, params, expo, seed, n_paths)


def negbin_sim_config(params: NegBinParams, seed: int, n_paths: int) -> SimConfig:
    """Simulator setup for the fractional negative binomial family.

    Only the paired hyperbolic success schedule has a closed-form epoch
    quantile; its epoch law is exactly uniform on [0, T].
    """
    if not isinstance(params.q_profile, Example31Profile):
        raise DomainError("closed-form epoch quantile exists for the paired schedule only")
    return _sim_config(pmf_negbin_r1, params, 1.0, seed, n_paths)


@dataclass(frozen=True)
class PathBatch:
    """Flat storage for many paths: times concatenated path-by-path, sorted within each pool as the estimators
    need, and each epoch's rank there.  Ranks left out are derived from `offsets` once, refusing an unsorted pool."""

    horizon: float
    offsets: np.ndarray  # int64, length n_paths + 1
    times: np.ndarray  # float64 in [0, horizon], sorted within each path
    common: np.ndarray  # bool per path
    ranks: np.ndarray | None = None  # uint8 per epoch, uint16 once pools can reach 256

    @property
    def n_paths(self) -> int:
        return len(self.offsets) - 1

    def pool_sizes(self) -> np.ndarray:
        return np.diff(self.offsets)

    def counts_at(self, t: float) -> np.ndarray:
        """N(t) for every path, as exact integers."""
        if t == self.horizon:
            return self.pool_sizes()  # every epoch falls by the horizon
        return self._path_sums(self.times <= self._check_time(t))

    def _check_time(self, t: float) -> float:
        if not 0.0 <= t <= self.horizon:
            raise DomainError(f"time {t} outside [0, {self.horizon}]")
        return t

    def _epoch_ranks(self) -> np.ndarray:
        if self.ranks is None:  # derived once, into the field: a cached attribute would slow every path read
            ranks = np.arange(len(self.times)) - np.repeat(self.offsets[:-1], self.pool_sizes())
            if ((ranks[1:] > 0) & ~(self.times[:-1] <= self.times[1:])).any():
                raise DomainError("epoch times must be sorted within each pool")
            object.__setattr__(self, "ranks", ranks.astype(np.min_scalar_type(ranks.max(initial=0))))
        return self.ranks

    def _path_sums(self, per_epoch: np.ndarray) -> np.ndarray:
        # a path's sum is the difference of the prefix sums at its two offsets, taken a block of paths
        # at a time: batch-sized temporaries would be fresh pages whenever the heap has no hole for them
        sums = np.empty(self.n_paths, dtype=np.int64)
        for lo in range(0, self.n_paths, _BLOCK):
            offsets = self.offsets[lo:lo + _BLOCK + 1]
            hits = np.empty(offsets[-1] - offsets[0] + 1, dtype=np.int64)
            hits[0] = 0
            np.cumsum(per_epoch[offsets[0]:offsets[-1]], dtype=np.int64, out=hits[1:])
            ends = hits.take(offsets - offsets[0])
            np.subtract(ends[1:], ends[:-1], out=sums[lo:lo + _BLOCK])
        return sums

    def path(self, i: int) -> PathSample:
        if type(i) is not int or not 0 <= i < len(self.common):  # a plain int in range skips the full check
            _check_index(i, len(self.common))
        lo, hi = self.offsets[i:i + 2].tolist()
        times = tuple(self.times[lo:hi].tolist())
        return PathSample(m=hi - lo, event_times=times, common_flag=bool(self.common[i]))


def _check_index(i: int, n: int) -> None:
    if isinstance(i, bool) or not (isinstance(i, (int, np.integer)) and 0 <= i < n):
        raise DomainError(f"path index {i} outside [0, {n})")


def _draw_pools(cfg: SimConfig, index: np.ndarray, common: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Keys of one block of paths; writes their branches into `common` and the prefix sums of their
    pool sizes into `ends`.  A uniform is w * 2^-53 exactly, so u < x just when w < ceil(x * 2^53)."""
    key = _path_keys(cfg.seed, index)
    # the branch words, then the count words, mixed as one flat array
    n = len(key)
    words = np.empty(2 * n, dtype=np.uint64)
    np.add(key, _draw_offset(_CTR_BRANCH), out=words[:n])
    np.add(key, _draw_offset(_CTR_COUNT), out=words[n:])
    branch, count = _word53(words)[:n], words[n:]
    np.less(branch, np.uint64(math.ceil(cfg.rho * 2.0**53)), out=common)
    _pool_sizes(*cfg._pool_lookup, count, ends)
    np.cumsum(ends, out=ends)
    return key


def _draw_epochs(cfg: SimConfig, key: np.ndarray, common: np.ndarray, ends: np.ndarray, base: int,
                 times: np.ndarray, ranks: np.ndarray) -> None:
    """Sorted epochs of one block of paths into `times` and their ranks in their pools into `ranks`;
    `ends`, the block's prefix sums of pool sizes from 0, is then moved on by `base` to the batch's offsets."""
    starts = np.concatenate([[0], ends])  # not np.zeros, whose calloc may map fresh pages at this size
    ends += base
    # epoch draw words: key + _draw_offset(_CTR_TIMES + slot) for each slot of an independent pool,
    # key + _draw_offset(_CTR_TIMES) for every epoch of a common one
    owner = np.cumsum(np.bincount(starts[1:-1], minlength=len(times) + 1)[:len(times)])
    word = np.arange(len(times), dtype=np.uint64)
    word -= starts[owner].view(np.uint64)
    ranks[...] = word
    word *= ~common[owner]
    word *= _GOLDEN
    word += _draw_offset(_CTR_TIMES)
    word += key[owner]
    unit = _word53(word).astype(np.float64)
    unit *= 2.0**-53
    unit **= cfg.epoch_power  # in place, by the same power routine as `unit ** p`
    np.multiply(unit, cfg.horizon, out=times)
    _order_pools(times, starts, common)


def _order_pools(times: np.ndarray, starts: np.ndarray, common: np.ndarray) -> None:
    """Sorts every pool of `times` in place, its pools starting at `starts` (from 0)."""
    # only independent pools of two or more epochs can be out of order (a
    # common pool repeats one epoch); sort the pools of each size as one block
    m = starts[1:] - starts[:-1]
    pools = ((m >= 2) & ~common).nonzero()[0]
    if not len(pools):
        return
    sizes = m[pools]
    # small unsigned keys let the stable argsort run as a radix sort
    pools = pools[np.argsort(sizes.astype(np.min_scalar_type(sizes.max())), kind="stable")]
    per_size = np.bincount(sizes)
    sizes = np.flatnonzero(per_size)
    ends = np.cumsum(per_size[sizes]).tolist()
    for v, lo, hi in zip(sizes.tolist(), [0, *ends], ends):
        rows = starts[pools[lo:hi]] + np.arange(v)[:, None]  # row j: epoch j of every pool of size v
        if v in _NETWORKS:
            cols = list(times[rows])
            for i, j in _NETWORKS[v]:
                cols[i], cols[j] = np.minimum(cols[i], cols[j]), np.maximum(cols[i], cols[j])
            times[rows] = cols
        else:
            times[rows.T] = np.sort(times[rows.T], axis=1)


def _workers() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _simulate_indices(cfg: SimConfig, first: int, n: int) -> PathBatch:
    # paths [first, first + n) in blocks on a thread per CPU (one inline): pool sizes, which fix offsets, then
    # epochs; a block's offsets are summed from 0 in the first pass and moved to its base in the second
    spans = [(lo, min(lo + _BLOCK, n)) for lo in range(0, n, _BLOCK)]
    los, his = zip(*spans)
    workers = min(_workers(), len(spans)) if len(spans) > 1 else 1
    cfg._pool_lookup  # built here, once, rather than by racing workers
    with ThreadPoolExecutor(workers) if workers > 1 else nullcontext() as pool:
        run = pool.map if pool else map
        common = np.empty(n, dtype=bool)
        starts = np.zeros(n + 1, dtype=np.int64)
        keys = list(run(lambda lo, hi: _draw_pools(cfg, np.arange(first + lo, first + hi, dtype=np.uint64),
                                                   common[lo:hi], starts[lo + 1:hi + 1]), los, his))
        bases = list(accumulate(starts[list(his)].tolist(), initial=0))
        times, ranks = np.empty(bases[-1]), np.empty(bases[-1], dtype=np.min_scalar_type(len(cfg.count_cdf) - 1))
        list(run(lambda key, lo, hi, base, end: _draw_epochs(cfg, key, common[lo:hi], starts[lo + 1:hi + 1], base,
                                                             times[base:end], ranks[base:end]),
                 keys, los, his, bases, bases[1:]))
    return PathBatch(horizon=cfg.horizon, offsets=starts, times=times, common=common, ranks=ranks)


def simulate_paths(cfg: SimConfig) -> PathBatch:
    """All cfg.n_paths paths; a pure function of (seed, n_paths)."""
    return _simulate_indices(cfg, 0, cfg.n_paths)


def sample_path(cfg: SimConfig, path_index: int) -> PathSample:
    """Path at one index, bit-identical to the same row of simulate_paths."""
    _check_index(path_index, cfg.n_paths)
    return _simulate_indices(cfg, int(path_index), 1).path(0)


def wilson_halfwidth(successes: int, n: int) -> float:
    """Half-width of the score interval (z = 1) for a binomial proportion."""
    if n <= 0 or not 0 <= successes <= n:
        raise DomainError(f"need 0 <= successes <= n with n > 0, got {successes}/{n}")
    p = successes / n
    return math.sqrt(p * (1.0 - p) / n + 1.0 / (4.0 * n * n)) / (1.0 + 1.0 / n)


@dataclass(frozen=True)
class EmpiricalPmf:
    table: PmfTable
    halfwidths: tuple[float, ...]  # score-interval half-width per bin, z=1
    n_paths: int


def empirical_pmf(batch: PathBatch, t: float) -> EmpiricalPmf:
    """Histogram of N(t) across paths with a per-bin uncertainty width."""
    t, ranks, n = batch._check_time(t), batch._epoch_ranks(), batch.n_paths
    tally = np.zeros(2 * int(ranks.max(initial=0)) + 2, dtype=np.int64)
    for lo in range(0, len(ranks), _BLOCK):  # keys 2 * rank + [epoch <= t]: N(t) >= k on tally[2k - 1] paths
        key = np.left_shift(ranks[lo:lo + _BLOCK], 1, dtype=np.intp) | (batch.times[lo:lo + _BLOCK] <= t)
        tally += np.bincount(key, minlength=len(tally))
    hist = np.trim_zeros(-np.diff([n, *tally[1::2], 0]), "b").tolist()
    return EmpiricalPmf(PmfTable.from_probs([c / n for c in hist]), tuple(wilson_halfwidth(c, n) for c in hist), n)


@dataclass(frozen=True)
class Estimate:
    value: float
    stderr: float


def empirical_cov(batch: PathBatch, s: float, t: float) -> Estimate:
    """Sample covariance of (N(s), N(t)) with a leave-one-out standard error.

    The estimate and its jackknife are exact integer sums over the distinct
    (N(s), N(t)) cells, weighted by their path counts, so both are
    independent of path order and each is rounded once, to a float.
    """
    n = batch.n_paths
    if n < 3:
        raise DomainError("need at least 3 paths for a covariance standard error")
    # a path's cell key N(s)*w + N(t), w past every pool size, sums w*[e <= s] + [e <= t] over its
    # epochs e; keys are counted densely while that stays a few times the path count, else as distinct
    w = 1 + max(int(np.diff(batch.offsets[lo:lo + _BLOCK + 1]).max()) for lo in range(0, n, _BLOCK))
    per_epoch = np.multiply(batch.times <= batch._check_time(s), w, dtype=np.min_scalar_type(w + 1))
    per_epoch += batch.times <= batch._check_time(t)
    key = batch._path_sums(per_epoch)
    if int(key.max()) < 4 * n:
        keys = np.flatnonzero(hist := np.bincount(key))
        paths = hist[keys]
    else:
        keys, paths = np.unique(key, return_counts=True)
    cells = [(c, *divmod(k, w)) for k, c in zip(keys.tolist(), paths.tolist())]
    sx, sy, sxy = map(sum, zip(*[(c * i, c * j, c * i * j) for c, i, j in cells]))
    value = (sxy * n - sx * sy) / (n * (n - 1))
    # without one path of cell (i, j) the estimate is loo / ((n-1)(n-2)); the standard
    # error is (n-1)/n times the squared deviations of those estimates from their mean
    loo = [(c, (sxy - i * j) * (n - 1) - (sx - i) * (sy - j)) for c, i, j in cells]
    s1, s2 = map(sum, zip(*[(c * v, c * v * v) for c, v in loo]))
    stderr = math.sqrt((n - 1) * (n * s2 - s1 * s1) / (n * (n - 1) * (n - 2)) ** 2)
    return Estimate(value=value, stderr=stderr)


def empirical_joint_11(batch: PathBatch, t: float, horizon: float) -> float:
    """Fraction of paths with exactly one event by t and by `horizon`, which may be any time in [0, T]: their
    rank-0 epoch falls by the earlier time, and the next, their rank-1 epoch if any, not by the later."""
    early, late = sorted(map(batch._check_time, (t, horizon)))
    ranks = batch._epoch_ranks()
    first = (ranks == 0) & (batch.times <= early)
    second = (ranks[1:] == 1) & first[:-1]
    if late < batch.horizon:  # by the horizon every epoch falls
        second &= batch.times[1:] <= late
    return int(np.count_nonzero(first) - np.count_nonzero(second)) / batch.n_paths


def tv_distance(a: PmfTable | Sequence[float], b: PmfTable | Sequence[float]) -> float:
    """Total-variation distance over the union of the two supports."""
    pa, pb = (p.probs if isinstance(p, PmfTable) else p for p in (a, b))
    return 0.5 * math.fsum(abs(u - v) for u, v in zip_longest(pa, pb, fillvalue=0.0))
