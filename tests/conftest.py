import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from rispaces.stepfn import (
    StepFunction,
    StepFunctionError,
    common_breakpoints,
    format_stepfn,
    lp_norm,
    step_function,
    values_on,
)

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


# pieces below an ulp of a running sum, none shorter than 1/DBL_MAX; the G
# indicator norm, which the G envelope weight divides by, is checked down to
# 5e-324 in test_oracle.py
_TINY_BREAKS = (1e-300, 1e-20, 1e-17)


@st.composite
def batch_functions(draw, max_pieces=8):
    """One row of a padded batch: a step function whose values are all zero,
    already rearranged, drawn from a few magnitudes of either sign (equal
    |values| with opposite signs), or arbitrary; some pieces shorter than an
    ulp of the running sum; values scaled by 1, 1e300 or 1e-300."""
    k = draw(st.integers(min_value=1, max_value=max_pieces))
    inner = set(draw(st.lists(st.floats(1e-6, 1.0 - 1e-6), min_size=k - 1, max_size=k - 1)))
    if inner and draw(st.booleans()):  # a piece one ulp long after an inner point
        inner.add(float(np.nextafter(max(inner), 1.0)))
    inner |= set(draw(st.lists(st.sampled_from(_TINY_BREAKS), max_size=2)))
    breaks = np.array([0.0, *sorted(inner), 1.0])
    n = len(breaks) - 1
    kind = draw(st.sampled_from(["zero", "rearranged", "signs", "any"]))
    if kind == "zero":
        vals = np.zeros(n)
    elif kind == "signs":
        vals = np.array(draw(st.lists(st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0]),
                                      min_size=n, max_size=n)))
    else:
        vals = np.array(draw(st.lists(st.floats(-50.0, 50.0), min_size=n, max_size=n)))
        if kind == "rearranged":
            vals = np.sort(np.abs(vals))[::-1]
    return StepFunction(breaks, vals * draw(st.sampled_from([1.0, 1e300, 1e-300])))


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


# --- step-function helpers that only the tests use ---------------------------


def l2_norm(f):
    return lp_norm(f, 2.0)


def measure_above(f, c):
    """Lebesgue measure of the set {|f| > c}."""
    mask = np.abs(f.values) > c
    return math.fsum(f.lengths[mask])


def linear_combination(fns, coeffs):
    """Pointwise sum of coeffs[i] * fns[i] on the common refinement.

    Accumulates left to right, so the floating-point result matches a direct
    running sum in the same order.
    """
    if len(fns) != len(coeffs) or not fns:
        raise StepFunctionError("need equally many functions and coefficients")
    breaks = common_breakpoints(fns)
    vals = np.zeros(len(breaks) - 1)
    for f, c in zip(fns, coeffs):
        vals = vals + float(c) * values_on(f, breaks)
    return StepFunction(breaks, vals)


def multiply(f, g):
    breaks = common_breakpoints([f, g])
    return StepFunction(breaks, values_on(f, breaks) * values_on(g, breaks))


def hinge_norm_exact(f, a):
    """inf{lam : sum_i l_i (|v_i|/lam - a)^+ <= 1} in exact rationals: with the
    k largest |v_i| active, mu = 1/lam solves a linear equation."""
    a = Fraction(a)
    pieces = sorted(
        ((Fraction(abs(float(v))), Fraction(float(l))) for v, l in zip(f.values, f.lengths)),
        reverse=True,
    )
    mass = level = Fraction(0)
    for k, (v, l) in enumerate(pieces):
        mass += l * v
        level += l
        mu = (1 + a * level) / mass
        below = pieces[k + 1][0] if k + 1 < len(pieces) else Fraction(0)
        if below * mu <= a:
            return 1 / mu
    raise AssertionError("no active set solves the hinge equation")


def write_stepfn(f, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_stepfn(f))


# --- the scalar rearrangement, Lorentz and Marcinkiewicz bodies ---------------
# kept as references for the rows code, which must reproduce them bit for bit


def reference_rearrange(f):
    a = np.abs(f.values)
    if np.all(f.values >= 0.0) and np.all(a[1:] <= a[:-1]):
        return f
    order = np.argsort(-a, kind="stable")
    breaks = np.concatenate(([0.0], np.cumsum(f.lengths[order])))
    breaks[-1] = 1.0  # guard cumsum round-off on the top endpoint
    # a tiny length can underflow against the running sum; merge such pieces
    keep = np.diff(breaks) > 0.0
    rights = breaks[1:][keep]
    rights[-1] = 1.0
    return StepFunction(np.concatenate(([0.0], rights)), a[order][keep])


def reference_lorentz_norm(f, w):
    r = reference_rearrange(f)
    m = 2.0 ** (math.frexp(r.values[0])[1] - 1)  # the power of two at or below the max
    return m * math.fsum(r.values / m * np.diff(np.asarray(w(r.breakpoints), dtype=np.float64)))


def reference_marcinkiewicz_sup(f, w):
    r = reference_rearrange(f)
    if r.is_zero():
        return 0.0, 1.0
    b = r.breakpoints[1:]
    m = 2.0 ** (math.frexp(r.values[0])[1] - 1)  # the power of two at or below the max
    F = np.cumsum(r.values / m * r.lengths)
    phi = w(b)
    with np.errstate(divide="ignore", invalid="ignore"):
        q = np.where(phi > 0.0, F / phi, -np.inf)
    i = int(np.argmax(q))
    return m * float(q[i]), float(b[i])


def bits(*xs) -> bytes:
    """The float64 bytes of the given numbers or arrays, in order."""
    return np.asarray(xs, dtype=np.float64).tobytes()


def assert_same_step_function(f, g):
    """f and g hold the same float64 bits, in read-only arrays."""
    for a, b in ((f.breakpoints, g.breakpoints), (f.values, g.values)):
        assert a.dtype == b.dtype == np.float64
        assert a.tobytes() == b.tobytes()
        assert not a.flags.writeable and not b.flags.writeable


def validating_canonical(monkeypatch):
    """Replace `StepFunction._canonical` by the validating constructor;
    returns the list that records each call."""
    calls = []

    def validating(cls, breaks, values):
        calls.append(len(values))
        return cls(breaks, values)

    monkeypatch.setattr(StepFunction, "_canonical", classmethod(validating))
    return calls


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
