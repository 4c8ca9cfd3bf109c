"""Truncated pmf container shared by the process, weighting, and simulation
modules, and the branch-mixture assembler of both process families.

With weight rho the whole pool sits on one common epoch, so the law at t is
(1 - rho) * running + rho * [(1 - F) * delta_0 + F * held], with held the
law at the horizon.  A caller names the level of each branch (a time, or a
success level); _live_levels is the one rule for which levels a mixture
reads, and _branch_table and _branch_transform read only those, the held
branch from the running entries where the two levels are equal.
"""
from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import CancellationLoss, DomainError

# tolerated numeric slop: series roundoff may push a probability a hair
# negative or the head sum a hair past 1
NEG_PROB_SLOP = 1e-12
NEG_TAIL_SLOP = 1e-9


@dataclass(frozen=True)
class PmfTable:
    """Probabilities for counts 0..K plus the mass beyond K.

    Entries are kept as computed (tiny negatives allowed within slop) so that
    identities can be checked at full precision.
    """

    probs: tuple[float, ...]
    K: int
    tail_mass: float

    @classmethod
    def from_probs(cls, probs) -> "PmfTable":
        probs = tuple(float(p) for p in probs)
        if not probs:
            raise DomainError("a pmf table needs at least the k=0 entry")
        tail = 1.0 - math.fsum(probs)
        return cls(probs=probs, K=len(probs) - 1, tail_mass=tail)

    def __post_init__(self) -> None:
        if self.K != len(self.probs) - 1:
            raise DomainError(f"K={self.K} disagrees with {len(self.probs)} entries")
        for k, p in enumerate(self.probs):
            if math.isnan(p) or p < -NEG_PROB_SLOP or p > 1.0 + NEG_PROB_SLOP:
                raise CancellationLoss(
                    f"probability at k={k} is {p}; outside [-{NEG_PROB_SLOP}, 1]"
                )
        if math.isnan(self.tail_mass) or self.tail_mass < -NEG_TAIL_SLOP or self.tail_mass > 1.0 + NEG_TAIL_SLOP:
            raise CancellationLoss(
                f"tail mass {self.tail_mass} outside [-{NEG_TAIL_SLOP}, 1]"
            )

    def __len__(self) -> int:
        return len(self.probs)

    def __getitem__(self, k: int) -> float:
        return self.probs[k]

    def head_mass(self) -> float:
        return math.fsum(self.probs)


def _check_index(value, what: str) -> None:
    """Refuse an index that is not an int or a numpy integer, or is negative."""
    if not isinstance(value, (int, np.integer)):
        raise DomainError(f"{what} must be an integer, got {value!r}")
    if value < 0:
        raise DomainError(f"{what} must be >= 0, got {value}")


def _exact_row_sums(x: np.ndarray) -> np.ndarray:
    """math.fsum of each row of the 2-D array x, bit for bit (nan where it raises), in a few numpy calls.
    Rump, Ogita & Oishi's split: with sigma = 2^(M+e), 2^M >= width n + 2 and 2^e >= max|x|, q = (sigma + x) - sigma,
    p = x - q and tau = sum(q) are exact, and r = sum(p) is within d, twice the n u sum|p| bound.  Where the two
    fl(tau + (r -+ d)) agree, monotone rounding puts the exact sum there too; math.fsum sums the other rows."""
    with np.errstate(all="ignore"):
        big = np.abs(x).max(axis=1, keepdims=True)
        sigma = np.ldexp(1.0, np.frexp(big)[1] + (x.shape[1] + 1).bit_length())
        q = (sigma + x) - sigma
        p, tau = x - q, q.sum(axis=1)
        r, d = p.sum(axis=1), np.abs(p).sum(axis=1) * ((x.shape[1] + 4) * 2.0**-52)
        out = tau + (r + d)
        refer = (out != tau + (r - d)) | (out == 0.0) | ~(big[:, 0] > 2.0**-960)
    for i in refer.nonzero()[0]:
        try:
            out[i] = math.fsum(x[i].tolist())
        except (OverflowError, ValueError):  # math.fsum raises it again at the caller's turn
            out[i] = math.nan
    return out


def _live_levels(running, held, frac: float, rho: float) -> list:
    """The levels a mixture reads, running first: the running level if that
    branch weighs (1 - rho, plus rho * frac where held == running), then the
    held level if it weighs (rho * frac) and is not the running level."""
    held_weighs = rho * frac != 0.0
    levels = [running] if rho != 1.0 or (held_weighs and held == running) else []
    return levels + [held] if held_weighs and held != running else levels


def _branch_table(cols: dict, running, held, frac: float, rho: float, K: int) -> PmfTable:
    """Mixture table for k = 0..K from the branch entries cols[level], an
    array per live level: (1 - rho) * running, then + rho * (1 - F) at
    k = 0, then + rho * F * held, rounded in that order."""
    run = cols[running] if running in _live_levels(running, held, frac, rho) else np.zeros(K + 1)
    probs = (1.0 - rho) * run
    if rho != 0.0:
        probs[0] += rho * (1.0 - frac)
        if rho * frac != 0.0:
            probs += rho * frac * cols[held]
    return PmfTable.from_probs(probs.tolist())


def _branch_transform(transform: Callable, running, held, frac: float, rho: float) -> float:
    """Mixture of the branch transform values, transform(level) called once
    per live level, running first."""
    run = transform(running) if running in _live_levels(running, held, frac, rho) else 0.0
    out = (1.0 - rho) * run
    if rho != 0.0:
        coupled = rho * (1.0 - frac)
        if rho * frac != 0.0:
            coupled += rho * frac * (run if held == running else transform(held))
        out += coupled
    return out
