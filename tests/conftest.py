import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from rispaces.stepfn import StepFunction

# The tests must not depend on examples saved by earlier runs, so there is
# no example database; a case that has to be replayed is pinned with @example.
settings.register_profile("tier1", database=None)
settings.load_profile("tier1")


@st.composite
def step_functions(draw, max_pieces=8, min_value=-50.0, max_value=50.0):
    k = draw(st.integers(min_value=1, max_value=max_pieces))
    inner = draw(
        st.lists(
            st.floats(min_value=1e-6, max_value=1.0 - 1e-6),
            min_size=k - 1,
            max_size=k - 1,
            unique=True,
        )
    )
    breaks = np.concatenate(([0.0], np.sort(inner), [1.0]))
    vals = draw(
        st.lists(
            st.floats(min_value=min_value, max_value=max_value, allow_nan=False),
            min_size=k,
            max_size=k,
        )
    )
    return StepFunction(breaks, np.asarray(vals))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
