import numpy as np
import pytest
from hypothesis import settings

from shoda import AlgebraSpec

# the same examples on every run; select with --hypothesis-profile=ci
settings.register_profile("ci", derandomize=True)


def compositions(max_total: int, max_blocks: int | None = None) -> list[tuple[int, ...]]:
    """All ordered block-size tuples with total size up to max_total."""
    out: list[tuple[int, ...]] = []

    def rec(remaining: int, acc: list[int]):
        if remaining == 0:
            out.append(tuple(acc))
            return
        for first in range(1, remaining + 1):
            rec(remaining - first, acc + [first])

    for total in range(1, max_total + 1):
        rec(total, [])
    if max_blocks is not None:
        out = [c for c in out if len(c) <= max_blocks]
    return out


@pytest.fixture
def spec23() -> AlgebraSpec:
    return AlgebraSpec((2, 3))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)
