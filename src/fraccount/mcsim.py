"""Seeded Monte Carlo for the correlated epoch-pool construction.

A path is a pool of m epochs on [0, horizon]: with probability rho all of
them collapse onto one common epoch, otherwise they are drawn independently
from the epoch law F.  Counting epochs up to time t then reproduces the
three-component mixture law the closed forms describe, which is what the
empirical estimators here cross-check.

Randomness is counter-based: every uniform is a pure function of
(seed, path_index, draw_index), so results are bit-for-bit reproducible no
matter how paths are batched or parallelized.  Aggregation uses integer
sums only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
_U64_TO_UNIT = 1.0 / 9007199254740992.0  # 2^-53

# draw layout per path: counter 0 decides the common-epoch branch, counter 1
# picks the pool size, counters 2,3,... feed the epoch times (a common-branch
# path reads counter 2 once and shares it)
_CTR_BRANCH = 0
_CTR_COUNT = 1
_CTR_TIMES = 2

DEFAULT_TAIL_CUTOFF = 1e-10
K_MAX = 10**6


def _mix64(x: np.ndarray) -> np.ndarray:
    # splitmix64 output stage, in place on a uint64 array; arithmetic wraps
    # mod 2^64
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    return x


def _path_keys(seed: int, path_index: np.ndarray) -> np.ndarray:
    """Per-path stream key: draw c of a path mixes key + _draw_offset(c)."""
    key = path_index + np.uint64(1)
    key *= _GOLDEN
    key += np.uint64(seed)
    return _mix64(key)


def _draw_offset(counter: int) -> np.uint64:
    """What draw `counter` adds to its path key, reduced mod 2^64."""
    return np.uint64(int(_GOLDEN) * (counter + 1) % 2**64)


def _unit_uniform(word: np.ndarray) -> np.ndarray:
    """Uniform in [0,1) from a key-plus-offset word, mixed in place."""
    word = _mix64(word)
    word >>= np.uint64(11)
    unit = word.astype(np.float64)
    unit *= _U64_TO_UNIT
    return unit


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
        if not 0 <= self.seed < 2**64:
            raise DomainError(f"seed must fit in 64 unsigned bits, got {self.seed}")
        if self.n_paths <= 0:
            raise DomainError(f"need a positive path count, got {self.n_paths}")
        if not 0.0 <= self.rho <= 1.0:
            raise DomainError(f"coupling weight must lie in [0,1], got {self.rho}")
        if not 0.0 < self.horizon < math.inf:
            raise DomainError(f"horizon must be positive, got {self.horizon}")


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
    """Flat storage for many paths: times concatenated path-by-path."""

    horizon: float
    offsets: np.ndarray  # int64, length n_paths + 1
    times: np.ndarray  # float64 in [0, horizon], sorted within each path
    common: np.ndarray  # bool per path

    @property
    def n_paths(self) -> int:
        return len(self.offsets) - 1

    def pool_sizes(self) -> np.ndarray:
        return np.diff(self.offsets)

    def counts_at(self, t: float) -> np.ndarray:
        """N(t) for every path, as exact integers."""
        if not 0.0 <= t <= self.horizon:
            raise DomainError(f"time {t} outside [0, {self.horizon}]")
        if t == self.horizon:
            return self.pool_sizes()  # every epoch falls by the horizon
        # hits[j] counts the epochs before position j that fall by t, so a
        # path's count is the difference of hits at its two offsets
        hits = np.zeros(len(self.times) + 1, dtype=np.int64)
        np.cumsum(self.times <= t, dtype=np.int64, out=hits[1:])
        return hits[self.offsets[1:]] - hits[self.offsets[:-1]]

    def path(self, i: int) -> PathSample:
        lo, hi = int(self.offsets[i]), int(self.offsets[i + 1])
        return PathSample(
            m=hi - lo,
            event_times=tuple(float(x) for x in self.times[lo:hi]),
            common_flag=bool(self.common[i]),
        )


def _simulate_indices(cfg: SimConfig, path_index: np.ndarray) -> PathBatch:
    key = _path_keys(cfg.seed, np.asarray(path_index, dtype=np.uint64))
    common = _unit_uniform(key + _draw_offset(_CTR_BRANCH)) < cfg.rho
    m = np.searchsorted(cfg.count_cdf, _unit_uniform(key + _draw_offset(_CTR_COUNT)), side="right")
    # mass beyond the table is below the construction cutoff; pin it to the top
    np.minimum(m, len(cfg.count_cdf) - 1, out=m)
    starts = np.zeros(len(m) + 1, dtype=np.int64)
    np.cumsum(m, out=starts[1:])
    total = int(starts[-1])

    # epoch draw words: counter _CTR_TIMES + slot in an independent pool,
    # _CTR_TIMES for every epoch of a common one
    owner = np.repeat(np.arange(len(m)), m)
    word = np.arange(total, dtype=np.uint64)
    word -= starts[owner].view(np.uint64)
    word *= ~common[owner]
    word += np.uint64(_CTR_TIMES + 1)
    word *= _GOLDEN
    word += key[owner]
    times = cfg.horizon * _unit_uniform(word) ** cfg.epoch_power

    # only independent pools of two or more epochs can be out of order (a
    # common pool repeats one epoch); sort the pools of each size as one block
    pools = np.flatnonzero((m >= 2) & ~common)
    sizes = m[pools]
    # small unsigned keys let the stable argsort run as a radix sort
    pools = pools[np.argsort(sizes.astype(np.min_scalar_type(len(cfg.count_cdf))), kind="stable")]
    per_size = np.bincount(sizes)
    sizes = np.flatnonzero(per_size)
    for v, group in zip(sizes, np.split(pools, np.cumsum(per_size[sizes])[:-1])):
        rows = starts[group][:, None] + np.arange(v)
        times[rows] = np.sort(times[rows], axis=1)
    return PathBatch(horizon=cfg.horizon, offsets=starts, times=times, common=common)


def simulate_paths(cfg: SimConfig) -> PathBatch:
    """All cfg.n_paths paths; a pure function of (seed, n_paths)."""
    return _simulate_indices(cfg, np.arange(cfg.n_paths, dtype=np.uint64))


def sample_path(cfg: SimConfig, path_index: int) -> PathSample:
    """Path at one index, bit-identical to the same row of simulate_paths."""
    if not 0 <= path_index < cfg.n_paths:
        raise DomainError(f"path index {path_index} outside [0, {cfg.n_paths})")
    return _simulate_indices(cfg, np.asarray([path_index], dtype=np.uint64)).path(0)


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
    counts = batch.counts_at(t)
    hist = np.bincount(counts)
    n = batch.n_paths
    table = PmfTable.from_probs([int(c) / n for c in hist])
    hw = tuple(wilson_halfwidth(int(c), n) for c in hist)
    return EmpiricalPmf(table=table, halfwidths=hw, n_paths=n)


@dataclass(frozen=True)
class Estimate:
    value: float
    stderr: float


def empirical_cov(batch: PathBatch, s: float, t: float) -> Estimate:
    """Sample covariance of (N(s), N(t)) with a leave-one-out standard error.

    Totals are exact integers, so the estimate is independent of path order;
    the leave-one-out numerators stay below 2^53 for any realistic run and
    are therefore exact in doubles as well.
    """
    n = batch.n_paths
    if n < 3:
        raise DomainError("need at least 3 paths for a covariance standard error")
    x = batch.counts_at(s)
    y = batch.counts_at(t)
    xy = x * y
    sx = int(x.sum())
    sy = int(y.sum())
    sxy = int(xy.sum())
    value = (sxy * n - sx * sy) / (n * (n - 1))

    # leave-one-out sums, formed in place so few path-sized arrays live at once
    m = n - 1
    sxy_i = np.subtract(sxy, xy, out=xy)
    sx_i = np.subtract(sx, x, out=x)
    sy_i = np.subtract(sy, y, out=y)
    sxy_i *= m
    sx_i *= sy_i
    sxy_i -= sx_i
    loo = sxy_i / (m * (m - 1))
    dev = loo - loo.mean()
    stderr = math.sqrt((n - 1) / n * float(np.dot(dev, dev)))
    return Estimate(value=float(value), stderr=stderr)


def empirical_joint_11(batch: PathBatch, t: float, horizon: float) -> float:
    """Fraction of paths with exactly one event by t and one by the horizon."""
    hits = (batch.counts_at(t) == 1) & (batch.counts_at(horizon) == 1)
    return int(hits.sum()) / batch.n_paths


def tv_distance(a: PmfTable | Sequence[float], b: PmfTable | Sequence[float]) -> float:
    """Total-variation distance over the union of the two supports."""
    pa = list(a.probs) if isinstance(a, PmfTable) else list(a)
    pb = list(b.probs) if isinstance(b, PmfTable) else list(b)
    width = max(len(pa), len(pb))
    pa += [0.0] * (width - len(pa))
    pb += [0.0] * (width - len(pb))
    return 0.5 * math.fsum(abs(u - v) for u, v in zip(pa, pb))
