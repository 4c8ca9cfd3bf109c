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
from typing import Callable

from .errors import DegenerateWeights, DomainError
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
        half = math.fsum(contrib[: (len(contrib) + 1) // 2])
        full = math.fsum(contrib)
        if not (math.isfinite(full) and full > 0.0):
            raise DegenerateWeights(f"normalizer over truncated support is {full}")
        if abs(full - half) > _STABILITY_TOL * abs(full):
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
    counts zero surely.
    """
    if k < 0 or n < 0 or k > n:
        raise DomainError(f"need 0 <= k <= n, got k={k}, n={n}")
    if not 0.0 <= F_t <= 1.0:
        raise DomainError(f"F must lie in [0,1], got {F_t}")
    if not 0.0 <= rho <= 1.0:
        raise DomainError(f"coupling weight must lie in [0,1], got {rho}")
    if n == 0:
        return 1.0
    val = (1.0 - rho) * math.comb(n, k) * F_t**k * (1.0 - F_t) ** (n - k)
    if k == 0:
        val += rho * (1.0 - F_t)
    if k == n:
        val += rho * F_t
    return val


def _kernel_sums(
    base_Mg: PmfTable, wf: WeightFn, F_t: float, rho: float, K: int
) -> tuple[list[float], list[float]]:
    # numerator and denominator n-sums of the time-t weight ratio, k = 0..K
    num, den = [], []
    wvals = [_checked_weight(wf.w, n) for n in range(len(base_Mg))]
    for k in range(K + 1):
        qp = [(n, q_kernel(k, n, F_t, rho) * base_Mg[n]) for n in range(k, len(base_Mg))]
        num.append(math.fsum(q * wvals[n] for n, q in qp))
        den.append(math.fsum(q for _, q in qp))
    return num, den


def weights_in_time(
    base_Mg: PmfTable, wf: WeightFn, F_t: float, rho: float, K: int
) -> list[float]:
    """Raw time-t weight ratios for k = 0..K, defined up to a positive scalar.

    Ratio of the w-weighted to the unweighted kernel average over the pool
    size; a constant weight gives a constant vector, and at F = 1 the ratio
    reduces to w itself.
    """
    if K < 0:
        raise DomainError(f"truncation index must be >= 0, got {K}")
    num, den = _kernel_sums(base_Mg, wf, F_t, rho, K)
    out = []
    for k, (a, b) in enumerate(zip(num, den)):
        if not b > 0.0:
            raise DegenerateWeights(f"kernel average at k={k} is {b}; ratio undefined")
        out.append(a / b)
    return out


def weighted_process_pmf(
    base_Mg: PmfTable, wf: WeightFn, F_t: float, rho: float, K: int
) -> PmfTable:
    """Time-t law of the weighted pool: sum_n q(k|n,F,rho) P(M=n) w(n) / E[w]."""
    if K < 0:
        raise DomainError(f"truncation index must be >= 0, got {K}")
    num, _ = _kernel_sums(base_Mg, wf, F_t, rho, K)
    return PmfTable.from_probs([a / wf.normalizer for a in num])


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
    if not lam > 0.0:
        raise DomainError(f"rate must be positive, got {lam}")
    if not 0.0 <= rho <= 1.0:
        raise DomainError(f"coupling weight must lie in [0,1], got {rho}")
    if not 0.0 <= s <= t <= 1.0:
        raise DomainError(f"need 0 <= s <= t <= 1, got s={s}, t={t}")
