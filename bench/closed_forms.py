"""Laws the benchmark checks the program against, written out here from the
model rather than taken from the package.

At alpha = nu = 1 both families reduce to classical ones: the space-time
fractional count to a Poisson mixture and the negative binomial count to a
geometric mixture. The size-biased Poisson pool and the uniform-profile
Poisson pool have closed forms at every coupling weight.
"""
from __future__ import annotations

import math


def poisson(mean: float, k: int) -> float:
    if mean == 0.0:
        return 1.0 if k == 0 else 0.0
    return math.exp(-mean + k * math.log(mean) - math.lgamma(k + 1))


def stfp_classical_pmf(lam: float, T: float, rho: float, t: float, k: int) -> float:
    """P(N(t) = k) at alpha = nu = 1: (1-rho) Pois(lam t) plus rho times
    [(1-F) at zero + F Pois(lam T)], with F = t/T."""
    F = t / T
    out = (1.0 - rho) * poisson(lam * t, k) + rho * F * poisson(lam * T, k)
    return out + rho * (1.0 - F) if k == 0 else out


def stfp_classical_pgf(lam: float, T: float, rho: float, t: float, u: float) -> float:
    F = t / T
    return ((1.0 - rho) * math.exp(-lam * t * (1.0 - u))
            + rho * (1.0 - F) + rho * F * math.exp(-lam * T * (1.0 - u)))


def _example31_level(p: float, T: float, t: float) -> float:
    # success schedule q(t) of the hyperbolic profile with mixing weight 1-p
    return p / (1.0 - (1.0 - t / T) * (1.0 - p))


def negbin_classical_pmf(p: float, T: float, rho: float, t: float, k: int) -> float:
    """P(N(t) = k) at alpha = nu = 1 under the hyperbolic schedule: a mixture
    of geometric laws q(1-q)^k at levels q(t) and p, with F = t/T."""
    q = _example31_level(p, T, t)
    F = t / T
    out = (1.0 - rho) * q * (1.0 - q) ** k + rho * F * p * (1.0 - p) ** k
    return out + rho * (1.0 - F) if k == 0 else out


def negbin_classical_pgf(p: float, T: float, rho: float, t: float, u: float) -> float:
    q = _example31_level(p, T, t)
    F = t / T
    return ((1.0 - rho) * q / (1.0 - (1.0 - q) * u)
            + rho * (1.0 - F) + rho * F * p / (1.0 - (1.0 - p) * u))


def joint_11_classical(lam: float, T: float, t: float) -> float:
    """P(one event by t and one by T) at nu = 1: lam t exp(-lam T)."""
    return lam * t * math.exp(-lam * T)


def sizebiased_pool_pmf(lam: float, F: float, rho: float, k: int) -> float:
    """Time-t law of a size-biased Poisson(lam) pool. The size-biased pool is
    1 + Pois(lam); thinning it with F gives Bernoulli(F) + Pois(lam F), and
    the coupled branch moves the whole pool at once."""
    thinned = (1.0 - F) * poisson(lam * F, k)
    if k >= 1:
        thinned += F * poisson(lam * F, k - 1)
    coupled = (1.0 - F) if k == 0 else F * poisson(lam, k - 1)
    return (1.0 - rho) * thinned + rho * coupled


def pool_covariance(lam: float, rho: float, s: float, t: float) -> float:
    """Cov(N(s), N(t)) for s <= t of the Poisson(lam) pool on [0, 1] with a
    uniform epoch law: lam s (1 + lam rho (1 - t))."""
    return lam * s * (1.0 + lam * rho * (1.0 - t))


def proportion_ok(observed: float, expected: float, n: int, z: float) -> bool:
    """Whether a proportion of n independent draws lies within z standard
    errors of its expectation; z^2/n covers bins with a handful of draws."""
    sd = math.sqrt(max(expected * (1.0 - expected), 0.0) / n)
    return abs(observed - expected) <= z * sd + z * z / n
