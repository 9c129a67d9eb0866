import itertools

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from rispaces.stepfn import StepFunction, step_function

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


@st.composite
def moderate_functions(draw, max_pieces=8):
    """Values 0 or of modulus in [1e-3, 50] on pieces of length >= 1e-3, so
    that c*f has normal values and a normal norm for |c| in [1e-300, 1e300]."""
    inner = draw(st.lists(st.integers(1, 999), max_size=max_pieces - 1, unique=True))
    breaks = [0.0, *sorted(k / 1000.0 for k in inner), 1.0]
    magnitude = st.one_of(st.just(0.0), st.floats(1e-3, 50.0), st.floats(-50.0, -1e-3))
    vals = draw(st.lists(magnitude, min_size=len(breaks) - 1, max_size=len(breaks) - 1))
    return step_function(breaks, vals)


def sign_vectors(n):
    """All 2^n sign vectors, one per row, in lexicographic order: +1 before
    -1, the first sign most significant."""
    return np.array(list(itertools.product((1.0, -1.0), repeat=n))).reshape(1 << n, n)


def signed_sums(coeffs, start=0.0):
    """start + sum_i eps_i * coeffs[i] (scalars, or rows of a matrix), one
    entry per row of `sign_vectors`, each summed left to right one term at a
    time: a reference that depends neither on the BLAS nor on the kernel."""
    coeffs = np.asarray(coeffs, dtype=np.float64)
    sums = []
    for eps in sign_vectors(len(coeffs)):
        acc = start
        for e, a in zip(eps, coeffs):
            acc = acc + e * a
        sums.append(acc)
    return np.array(sums, dtype=np.float64)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
