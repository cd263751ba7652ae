import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from shoda import AlgebraSpec

# the same examples on every run; select with --hypothesis-profile=ci
settings.register_profile("ci", derandomize=True)

# the block-size enumeration is shared with scripts/completion_survey.py
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))


@pytest.fixture
def spec23() -> AlgebraSpec:
    return AlgebraSpec((2, 3))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)
