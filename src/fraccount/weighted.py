"""Weight transforms of counting laws and the finite-pool conditional kernel.

A weight function reshapes a count law by P(k) -> P(k) w(k) / E[w]; the
kernel q(k | n, F, rho) gives the law of the time-t count of a pool of n
epochs under the all-or-nothing coupling.  Combining the two yields the
time-t law of a weighted pool, which factors through a time-dependent
weight vector applied to the unweighted time-t law.  Covariance corrections
for the uniform-profile Poisson pool live here as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable

import numpy as np

from .errors import DegenerateWeights, DomainError, NonConvergent
from .pmftable import PmfTable

__all__ = [
    "WeightFn",
    "weighted_pmf",
    "q_kernel",
    "weights_in_time",
    "weighted_process_pmf",
    "covariance_corrected",
    "covariance_increment",
]

# truncated normalizer must be stable: first half vs full table
_STABILITY_TOL = 1e-8


def _checked_weight(w: Callable[[int], float], k: int) -> float:
    val = float(w(k))
    if not math.isfinite(val) or val < 0.0:
        raise DegenerateWeights(f"weight at k={k} is {val}; need finite nonnegative")
    return val


@dataclass(frozen=True)
class WeightFn:
    """A nonnegative weight sequence together with its normalizer E[w(M)].

    Build with from_base so the normalizer is tied to the count law it will
    reweight; a normalizer that keeps shifting as the truncation grows means
    the expectation does not exist at this truncation and is rejected.
    """

    w: Callable[[int], float]
    normalizer: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.normalizer) and self.normalizer > 0.0):
            raise DegenerateWeights(f"normalizer must be finite positive, got {self.normalizer}")

    @classmethod
    def from_base(cls, w: Callable[[int], float], base: PmfTable) -> "WeightFn":
        contrib = [_checked_weight(w, k) * base[k] for k in range(len(base))]
        cut = (len(contrib) + 1) // 2
        half = math.fsum(contrib[:cut])
        full = math.fsum(contrib)
        if not (math.isfinite(full) and full > 0.0):
            raise DegenerateWeights(f"normalizer over truncated support is {full}")
        # the weights answer only for the shift the base's own halves do not show
        own = 1.0 - math.fsum(base.probs[:cut]) / base.head_mass()
        if (full - half) / full - own > _STABILITY_TOL:
            raise DegenerateWeights(
                "normalizer not stable under truncation "
                f"(half {half}, full {full}); weights grow too fast for this table"
            )
        return cls(w=w, normalizer=full)


def weighted_pmf(base: PmfTable, wf: WeightFn) -> PmfTable:
    """Reweighted table: probs[k] = base[k] * w(k) / normalizer."""
    probs = [_checked_weight(wf.w, k) * base[k] / wf.normalizer for k in range(len(base))]
    return PmfTable.from_probs(probs)


def q_kernel(k: int, n: int, F_t: float, rho: float) -> float:
    """Law of the time-t count of an n-point pool: binomial thinning with
    weight 1-rho plus an all-or-nothing branch with weight rho.

    The coupled branch puts mass only on k = 0 and k = n; an empty pool
    counts zero surely.  One cell of _kernel, the formula the tables read.
    """
    if k < 0 or n < 0 or k > n:
        raise DomainError(f"need 0 <= k <= n, got k={k}, n={n}")
    return float(_kernel(F_t, rho, k, n))


def _binomials(k, n):
    """float(C(n, k)) at ints k, n, or for k = 0..K down and n = 0..N-1 across, row k the exact
    running sums of row k-1; a table converts its largest entry first, so one past a double fails early."""
    try:
        if np.ndim(n) == 0:
            return float(math.comb(n, k))
        float(math.comb(n.size - 1, min(k.size - 1, (n.size - 1) // 2)))
        row = [1] * n.size
        return np.array([row] + [row := [0, *accumulate(row)][:-1] for _ in range(k.size - 1)], dtype=float)
    except OverflowError:
        raise NonConvergent(f"a binomial coefficient C(n, k), n <= {np.max(n)}, overflows a double") from None


def _kernel(F_t: float, rho: float, k, n):
    """q(k | n, F, rho) = ((1-rho) C(n,k)) F^k (1-F)^(n-k), + rho (1-F) at k = 0, + rho F at
    k = n, 1 at n = 0, over ints or broadcast int arrays k, n (k > n is meaningless)."""
    if not 0.0 <= F_t <= 1.0:
        raise DomainError(f"F must lie in [0,1], got {F_t}")
    if not 0.0 <= rho <= 1.0:
        raise DomainError(f"coupling weight must lie in [0,1], got {rho}")
    q = (1.0 - rho) * _binomials(k, n) * _powers(F_t, k) * _powers(1.0 - F_t, n - k)
    q = np.where(k == 0, q + rho * (1.0 - F_t), q)
    q = np.where(k == n, q + rho * F_t, q)
    return np.where(n == 0, 1.0, q)


def _powers(x: float, j):
    # x**j (x**0 at j < 0), each power in use formed once, in Python: np.power may round otherwise
    return x**j if np.ndim(j) == 0 else np.array([x**e for e in range(j.max() + 1)])[np.maximum(j, 0)]


def _pool_terms(base_Mg: PmfTable, wf: WeightFn, F_t: float, rho: float, K: int) -> tuple:
    """q(k|n,F,rho) P(M=n), k = 0..min(K, N-1) down and n = 0..N-1 across, and the
    weights w(n); _row_sums rounds row k over n >= k exactly (math.fsum), 0 past the pool."""
    if K < 0:
        raise DomainError(f"truncation index must be >= 0, got {K}")
    w = np.array([_checked_weight(wf.w, n) for n in range(len(base_Mg))])
    k, n = np.arange(min(K + 1, len(base_Mg)))[:, None], np.arange(len(base_Mg))
    return _kernel(F_t, rho, k, n) * np.array(base_Mg.probs), w


def _row_sums(terms: np.ndarray, K: int) -> list[float]:
    return [math.fsum(row[k:]) for k, row in enumerate(terms.tolist())] + [0.0] * (K + 1 - len(terms))


def weights_in_time(base_Mg: PmfTable, wf: WeightFn, F_t: float, rho: float, K: int) -> list[float]:
    """Raw time-t weight ratios for k = 0..K, defined up to a positive scalar.

    Ratio of the w-weighted to the unweighted kernel average over the pool
    size; a constant weight gives a constant vector, and at F = 1 the ratio
    reduces to w itself.
    """
    terms, w = _pool_terms(base_Mg, wf, F_t, rho, K)
    num, den = _row_sums(terms * w, K), _row_sums(terms, K)
    for k, b in enumerate(den):
        if not b > 0.0:
            raise DegenerateWeights(f"kernel average at k={k} is {b}; ratio undefined")
    return [a / b for a, b in zip(num, den)]


def weighted_process_pmf(base_Mg: PmfTable, wf: WeightFn, F_t: float, rho: float, K: int) -> PmfTable:
    """Time-t law of the weighted pool: sum_n q(k|n,F,rho) P(M=n) w(n) / E[w]."""
    terms, w = _pool_terms(base_Mg, wf, F_t, rho, K)
    return PmfTable.from_probs([a / wf.normalizer for a in _row_sums(terms * w, K)])


def covariance_corrected(lam: float, rho: float, s: float, t: float) -> float:
    """Covariance of the pool counts at times s <= t for the uniform-profile
    Poisson pool on [0,1]: lam*s*(1 + lam*rho*(1-t))."""
    _check_cov_args(lam, rho, s, t)
    return lam * s * (1.0 + lam * rho * (1.0 - t))


def covariance_increment(lam: float, rho: float, s: float, t: float) -> float:
    """Covariance of the increment over (s,t] with the count at s; vanishes
    without coupling and is negative with it: -lam^2*rho*s*(t-s)."""
    _check_cov_args(lam, rho, s, t)
    return -(lam**2) * rho * s * (t - s)


def _check_cov_args(lam: float, rho: float, s: float, t: float) -> None:
    if not 0.0 < lam < math.inf:
        raise DomainError(f"rate must be positive, got {lam}")
    if not 0.0 <= rho <= 1.0:
        raise DomainError(f"coupling weight must lie in [0,1], got {rho}")
    if not 0.0 <= s <= t <= 1.0:
        raise DomainError(f"need 0 <= s <= t <= 1, got s={s}, t={t}")
