"""Truncated pmf container shared by the process, weighting, and simulation
modules, and the branch-mixture assembler of both process families.

With weight rho the whole pool sits on one common epoch, so the law at t is
(1 - rho) * running + rho * [(1 - F) * delta_0 + F * held], with held the
law at the horizon.  _branch_table assembles a table from the two branch
streams, _branch_transform a transform from the two branch values.  A branch
of weight 0 is never evaluated; held None reads the running branch.
"""
from __future__ import annotations

import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass

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


def _branch_table(
    running: Iterator[float], held: Iterator[float] | None, frac: float, rho: float, K: int
) -> PmfTable:
    """Mixture table for k = 0..K, reading one entry per k from each stream."""
    w_held = rho * frac
    use_run = rho != 1.0 or (held is None and w_held != 0.0)
    probs = []
    for k in range(K + 1):
        run = next(running) if use_run else 0.0
        val = (1.0 - rho) * run
        if rho != 0.0:
            if k == 0:
                val += rho * (1.0 - frac)
            if w_held != 0.0:
                val += w_held * (run if held is None else next(held))
        probs.append(val)
    return PmfTable.from_probs(probs)


def _branch_transform(
    running: Callable[[], float], held: Callable[[], float] | None, frac: float, rho: float
) -> float:
    """Mixture of the two branch transform values, each a thunk."""
    w_held = rho * frac
    run = running() if rho != 1.0 or (held is None and w_held != 0.0) else 0.0
    out = (1.0 - rho) * run
    if rho != 0.0:
        coupled = rho * (1.0 - frac)
        if w_held != 0.0:
            coupled += w_held * (run if held is None else held())
        out += coupled
    return out
