"""Truncated pmf container shared by the process, weighting, and simulation
modules."""
from __future__ import annotations

import math
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
