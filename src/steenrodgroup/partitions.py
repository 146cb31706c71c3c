"""Ordered partitions (compositions) of n with length and shift statistics.

A composition nu = (nu(1), ..., nu(l)) of n has length l and partial sums
sigma(nu)(i) = nu(1) + ... + nu(i-1), the exponent shifts appearing in the
closed inverse formula.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import SteenrodError

DEFAULT_MAX_N = 20


class PartitionError(SteenrodError):
    pass


@dataclass(frozen=True)
class Composition:
    parts: tuple[int, ...]

    def __post_init__(self):
        if len(self.parts) < 1 or any(v < 1 for v in self.parts):
            raise PartitionError("composition entries must be positive")

    @property
    def n(self) -> int:
        return sum(self.parts)

    @property
    def length(self) -> int:
        return len(self.parts)

    def sigma(self, i: int) -> int:
        """Partial sum before position i (1-based); sigma(1) = 0."""
        if not 1 <= i <= self.length:
            raise PartitionError(f"position {i} out of range")
        return sum(self.parts[: i - 1])


def enumerate_compositions(n: int) -> list[Composition]:
    """All 2^(n-1) compositions of n, in lexicographic order."""
    if n < 1:
        raise PartitionError("n must be >= 1")
    if n > DEFAULT_MAX_N:
        raise PartitionError(f"n = {n} above enumeration cap {DEFAULT_MAX_N}")
    out: list[Composition] = []
    parts: list[int] = []

    def walk(remaining: int):
        if remaining == 0:
            out.append(Composition(tuple(parts)))
            return
        for v in range(1, remaining + 1):
            parts.append(v)
            walk(remaining - v)
            parts.pop()

    walk(n)
    return out


def extend_F(nu: Composition, m: int) -> Composition:
    """The partition bijection step: append m - sum(nu) to a composition of k < m."""
    k = nu.n
    if m <= k:
        raise PartitionError(f"m = {m} must exceed the composition total {k}")
    return Composition(nu.parts + (m - k,))
