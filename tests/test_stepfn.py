import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import step_functions
from rispaces import stepfn as sf


def F(breaks, vals):
    return sf.step_function(breaks, vals)


@st.composite
def moderate_functions(draw, max_pieces=8):
    """Values 0 or of modulus in [1e-3, 50] on pieces of length >= 1e-3, so
    that c*f has normal values and a normal norm for |c| in [1e-300, 1e300]."""
    inner = draw(st.lists(st.integers(1, 999), max_size=max_pieces - 1, unique=True))
    breaks = [0.0, *sorted(k / 1000.0 for k in inner), 1.0]
    magnitude = st.one_of(st.just(0.0), st.floats(1e-3, 50.0), st.floats(-50.0, -1e-3))
    vals = draw(st.lists(magnitude, min_size=len(breaks) - 1, max_size=len(breaks) - 1))
    return F(breaks, vals)


class TestConstruction:
    def test_canonical_merges_equal_neighbours(self):
        f = F([0, 0.3, 0.7, 1], [2.0, 2.0, 1.0])
        assert f.k == 2
        assert list(f.breakpoints) == [0.0, 0.7, 1.0]

    def test_rejects_bad_endpoints(self):
        with pytest.raises(sf.StepFunctionError):
            F([0.1, 1], [1.0])
        with pytest.raises(sf.StepFunctionError):
            F([0, 0.9], [1.0])

    def test_lengths_cached_and_read_only(self):
        f = F([0, 0.25, 0.7, 1], [3.0, 1.0, 2.0])
        assert f.lengths is f.lengths
        assert np.array_equal(f.lengths, np.diff(f.breakpoints))
        with pytest.raises(ValueError):
            f.lengths[0] = 0.5
        with pytest.raises(AttributeError):
            f.lengths = np.ones(3)

    def test_rejects_non_increasing_breaks(self):
        with pytest.raises(sf.StepFunctionError):
            F([0, 0.5, 0.5, 1], [1.0, 2.0, 3.0])

    def test_rejects_non_finite_values(self):
        with pytest.raises(sf.StepFunctionError):
            F([0, 1], [math.inf])

    def test_evaluation_right_closed(self):
        f = F([0, 0.5, 1], [3.0, 1.0])
        assert f(0.5) == 3.0
        assert f(0.500001) == 1.0
        assert f(1.0) == 1.0


class TestRearrange:
    def test_already_sorted_unchanged(self):
        f = F([0, 0.5, 1], [3.0, 1.0])
        assert sf.rearrange(f) is f

    def test_negative_tail(self):
        f = F([0, 0.5, 1], [0.0, -3.0])
        r = sf.rearrange(f)
        assert list(r.values) == [3.0, 0.0]
        assert list(r.breakpoints) == [0.0, 0.5, 1.0]

    def test_three_pieces(self):
        # oracle: sort (|value|, measure) pairs descending, accumulate
        f = F([0, 0.2, 0.5, 1], [1.0, 4.0, 2.0])
        r = sf.rearrange(f)
        assert list(r.values) == [4.0, 2.0, 1.0]
        assert np.allclose(r.breakpoints, [0.0, 0.3, 0.8, 1.0], atol=1e-15)

    @given(step_functions())
    @settings(max_examples=200)
    def test_idempotent(self, f):
        r = sf.rearrange(f)
        assert sf.rearrange(r) == r

    @given(step_functions())
    @settings(max_examples=200)
    def test_equimeasurable(self, f):
        r = sf.rearrange(f)
        for c in np.abs(f.values):
            if c > 0:
                assert sf.measure_above(f, c) == pytest.approx(
                    sf.measure_above(r, c), abs=1e-12
                )
            assert sf.measure_above(f, c * 0.999 + 1e-9) == pytest.approx(
                sf.measure_above(r, c * 0.999 + 1e-9), abs=1e-12
            )

    @given(step_functions())
    @settings(max_examples=200)
    def test_preserves_l1(self, f):
        assert sf.integral(abs(f)) == pytest.approx(
            sf.integral(sf.rearrange(f)), abs=1e-12
        )


class TestIntegrals:
    def test_constant(self):
        assert sf.integral(sf.constant(1.0)) == 1.0

    def test_indicator(self):
        assert sf.integral(sf.indicator(0.25)) == 0.25

    def test_three_piece(self):
        f = F([0, 0.2, 0.5, 1], [1.0, 4.0, 2.0])
        assert sf.integral(f) == pytest.approx(2.4, abs=1e-15)

    def test_partial_of_indicator(self):
        assert sf.partial_integral(sf.indicator(0.5), 0.25) == 0.25

    def test_partial_at_zero(self):
        assert sf.partial_integral(sf.constant(7.0), 0.0) == 0.0

    def test_partial_of_rearranged(self):
        r = F([0, 0.3, 0.8, 1], [4.0, 2.0, 1.0])
        assert sf.partial_integral(r, 0.5) == pytest.approx(1.6, abs=1e-15)

    def test_partial_rejects_outside(self):
        with pytest.raises(sf.StepFunctionError):
            sf.partial_integral(sf.constant(1.0), 1.5)

    @given(step_functions(min_value=0.0))
    @settings(max_examples=100)
    def test_partial_concave_nondecreasing(self, f):
        r = sf.rearrange(f)
        ts = np.linspace(0.0, 1.0, 17)
        vals = [sf.partial_integral(r, t) for t in ts]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
        second = np.diff(vals, 2)
        assert np.all(second <= 1e-12)


class TestStieltjes:
    def test_indicator_telescopes(self):
        for t in (0.1, 0.5, 1.0):
            f = sf.indicator(t)
            assert sf.stieltjes(f, np.sqrt) == pytest.approx(math.sqrt(t), abs=1e-15)

    def test_constant(self):
        w = lambda t: np.asarray(t) ** 0.3
        assert sf.stieltjes(sf.constant(1.0), w) == pytest.approx(1.0, abs=1e-15)

    def test_three_piece_sqrt(self):
        r = F([0, 0.3, 0.8, 1], [4.0, 2.0, 1.0])
        expected = (
            4 * math.sqrt(0.3)
            + 2 * (math.sqrt(0.8) - math.sqrt(0.3))
            + (1 - math.sqrt(0.8))
        )
        assert sf.stieltjes(r, np.sqrt) == pytest.approx(expected, abs=1e-14)

    @given(step_functions(min_value=0.0))
    @settings(max_examples=100)
    def test_identity_weight_is_integral(self, f):
        r = sf.rearrange(f)
        assert sf.stieltjes(r, lambda t: np.asarray(t, float)) == pytest.approx(
            sf.integral(r), abs=1e-12
        )


class TestNorms:
    def test_l1_indicator(self):
        assert sf.l1_norm(sf.indicator(0.5)) == 0.5

    def test_lp_constant(self):
        for p in (1.0, 2.0, 7.5):
            assert sf.lp_norm(sf.constant(-3.0), p) == pytest.approx(3.0, abs=1e-14)

    def test_l2_three_piece(self):
        f = F([0, 0.2, 0.5, 1], [1.0, 4.0, 2.0])
        assert sf.l2_norm(f) == pytest.approx(math.sqrt(7.0), abs=1e-14)

    def test_rejects_p_below_one(self):
        with pytest.raises(sf.StepFunctionError):
            sf.lp_norm(sf.constant(1.0), 0.5)

    def test_linf(self):
        f = F([0, 0.1, 1], [-9.0, 2.0])
        assert sf.linf_norm(f) == 9.0

    def test_lp_far_from_one(self):
        # the direct power sums underflow to 0, overflow to inf, or are
        # subnormal (1e-320 keeps four digits)
        for c in (1e-200, 1e200, 1e-160, 5e-324):
            assert sf.lp_norm(sf.constant(c), 2.0) == c
        assert sf.lp_norm(sf.constant(0.0), 2.0) == 0.0

    @given(f=moderate_functions(), exponent=st.floats(-300.0, 300.0), negative=st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_lp_homogeneous(self, f, exponent, negative):
        c = -(10.0**exponent) if negative else 10.0**exponent
        for p in (1.0, 2.0, 3.5, math.inf):
            want = abs(c) * sf.lp_norm(f, p)
            assert sf.lp_norm(f.scale(c), p) == pytest.approx(want, rel=1e-12)

    def test_lp_rows_match_scalar(self, rng):
        lengths = np.diff(np.concatenate(([0.0], np.sort(rng.uniform(0, 1, 5)), [1.0])))
        breaks = np.concatenate(([0.0], np.cumsum(lengths)))
        breaks[-1] = 1.0
        scales = np.array([[1.0], [1e-200], [1e200], [0.0], [1e-160], [3.0]])
        V = rng.uniform(-4.0, 4.0, size=(6, 6)) * scales
        for p in (1.0, 2.0, 3.5, math.inf):
            got = sf.lp_norm_rows(V, lengths, p)
            for row, g in zip(V, got):
                assert g == pytest.approx(sf.lp_norm(sf.StepFunction(breaks, row), p), rel=1e-12)


class TestCombination:
    def test_linear_combination(self):
        f = sf.indicator(0.5)
        g = F([0, 0.25, 1], [0.0, 1.0])
        h = sf.linear_combination([f, g], [2.0, -1.0])
        assert h(0.2) == 2.0
        assert h(0.4) == 1.0
        assert h(0.9) == -1.0

    def test_multiply(self):
        f = sf.indicator(0.5)
        assert sf.integral(sf.multiply(f, f)) == 0.5


class TestFileFormat:
    def test_roundtrip(self, tmp_path):
        f = F([0, 0.2, 0.5, 1], [1.0, 4.0, 2.0])
        path = tmp_path / "f.stepfn"
        sf.write_stepfn(f, path)
        assert sf.read_stepfn(path) == f

    def test_missing_header(self):
        with pytest.raises(sf.ParseError, match="line 1"):
            sf.parse_stepfn("0.5 1\n1 0\n")

    def test_bad_number(self):
        with pytest.raises(sf.ParseError, match="line 3"):
            sf.parse_stepfn("stepfn v1\n0.5 1\nxx 0\n")

    def test_non_increasing(self):
        with pytest.raises(sf.ParseError, match="line 3"):
            sf.parse_stepfn("stepfn v1\n0.5 1\n0.4 0\n")

    def test_last_not_one(self):
        with pytest.raises(sf.ParseError):
            sf.parse_stepfn("stepfn v1\n0.5 1\n0.9 0\n")

    def test_extra_column(self):
        with pytest.raises(sf.ParseError, match="line 2"):
            sf.parse_stepfn("stepfn v1\n0.5 1 7\n1 0\n")
