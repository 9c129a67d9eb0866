import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    assert_same_step_function,
    batch_functions,
    bits,
    l2_norm,
    linear_combination,
    measure_above,
    moderate_functions,
    multiply,
    reference_rearrange,
    step_functions,
    write_stepfn,
)
from rispaces import stepfn as sf


def F(breaks, vals):
    return sf.step_function(breaks, vals)


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

    @pytest.mark.parametrize("breaks, vals", [([0.0, 1.0], [2.0]), ([0.0, 0.5, 1.0], [2.0, 1.0])])
    def test_caller_arrays_stay_writable_and_unshared(self, breaks, vals):
        b, v = np.array(breaks), np.array(vals)
        f = sf.StepFunction(b, v)
        assert b.flags.writeable and v.flags.writeable
        assert not np.shares_memory(f.breakpoints, b)
        assert not np.shares_memory(f.values, v)
        b[-1] = v[0] = 7.0  # the caller may reuse its buffers
        assert f.breakpoints[-1] == 1.0 and f.values[0] == 2.0

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
                assert measure_above(f, c) == pytest.approx(
                    measure_above(r, c), abs=1e-12
                )
            assert measure_above(f, c * 0.999 + 1e-9) == pytest.approx(
                measure_above(r, c * 0.999 + 1e-9), abs=1e-12
            )

    @given(step_functions())
    @settings(max_examples=200)
    def test_preserves_l1(self, f):
        assert sf.integral(abs(f)) == pytest.approx(
            sf.integral(sf.rearrange(f)), abs=1e-12
        )


class TestRearrangeRows:
    @given(st.lists(batch_functions(), min_size=1, max_size=6))
    @settings(max_examples=300, deadline=None)
    def test_rows_match_the_scalar_reference_bitwise(self, fns):
        try:
            refs = [reference_rearrange(f) for f in fns]
        except sf.StepFunctionError:
            with pytest.raises(sf.StepFunctionError):
                sf.rearrange_rows(sf.StepRows.stack(fns))
            return
        batch = sf.rearrange_rows(sf.StepRows.stack(fns))
        for i, (f, ref) in enumerate(zip(fns, refs)):
            # each row of the batch, and the same row rearranged alone
            for rows, j in ((batch, i), (sf.rearrange_rows(sf.StepRows.of(f)), 0)):
                k = rows.counts[j]
                assert k == ref.k
                assert bits(rows.breakpoints[j, : k + 1]) == bits(ref.breakpoints)
                assert bits(rows.values[j, :k]) == bits(ref.values)
                assert np.all(rows.breakpoints[j, k + 1 :] == 1.0)
                assert np.all(rows.values[j, k:] == 0.0)
            r = sf.rearrange(f)
            assert (r is f) == (ref is f)
            assert_same_step_function(r, ref)

    def test_a_rearranged_batch_is_returned_unchanged(self):
        rows = sf.rearrange_rows(sf.StepRows.stack([F([0, 0.5, 1], [1.0, -3.0]), sf.indicator(0.25)]))
        assert sf.rearrange_rows(rows) is rows

    def test_padding(self):
        rows = sf.StepRows.stack([sf.constant(2.0), F([0, 0.25, 0.5, 1], [1.0, 3.0, 2.0])])
        assert list(rows.counts) == [1, 3]
        assert rows.breakpoints[0].tolist() == [0.0, 1.0, 1.0, 1.0]
        assert rows.values[0].tolist() == [2.0, 0.0, 0.0]
        assert rows.lengths[0].tolist() == [1.0, 0.0, 0.0]
        assert rows.row(1) == F([0, 0.25, 0.5, 1], [1.0, 3.0, 2.0])


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

    @given(st.lists(batch_functions(), min_size=1, max_size=6), st.data())
    @settings(max_examples=200, deadline=None)
    def test_partial_rows_match_the_scalar_body_bitwise(self, fns, data):
        # the body of the scalar partial integral before it became the
        # one-row case, on rows already rearranged
        def reference(f, t):
            if t == 0.0:
                return 0.0
            b, v = f.breakpoints, f.values
            j = int(np.searchsorted(b, t, side="left"))  # b[j-1] < t <= b[j]
            return math.fsum(v[: j - 1] * np.diff(b[:j])) + float(v[j - 1]) * (t - float(b[j - 1]))

        try:
            rows = sf.rearrange_rows(sf.StepRows.stack(fns))
        except sf.StepFunctionError:
            return
        rs = [sf.StepFunction(rows.breakpoints[i, : k + 1], rows.values[i, :k])
              for i, k in enumerate(rows.counts)]
        point = st.one_of(st.sampled_from([0.0, 1.0, 1e-300]), st.floats(0.0, 1.0),
                          st.sampled_from([float(b) for r in rs for b in r.breakpoints]))
        ts = data.draw(st.lists(point, min_size=len(rs), max_size=len(rs)))
        got = sf.partial_integral_rows(rows, ts)
        assert bits(got) == bits([reference(r, t) for r, t in zip(rs, ts)])
        assert bits(got) == bits([sf.partial_integral(r, t) for r, t in zip(rs, ts)])

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
        assert sf.lp_norm(sf.indicator(0.5), 1.0) == 0.5

    def test_lp_constant(self):
        for p in (1.0, 2.0, 7.5):
            assert sf.lp_norm(sf.constant(-3.0), p) == pytest.approx(3.0, abs=1e-14)

    def test_l2_three_piece(self):
        f = F([0, 0.2, 0.5, 1], [1.0, 4.0, 2.0])
        assert l2_norm(f) == pytest.approx(math.sqrt(7.0), abs=1e-14)

    def test_rejects_p_below_one(self):
        with pytest.raises(sf.StepFunctionError):
            sf.lp_norm(sf.constant(1.0), 0.5)

    def test_linf(self):
        f = F([0, 0.1, 1], [-9.0, 2.0])
        assert sf.lp_norm(f, math.inf) == 9.0

    def test_lp_far_from_one(self):
        # the direct power sums underflow to 0, overflow to inf, or are
        # subnormal (1e-320 keeps four digits)
        for c in (1e-200, 1e200, 1e-160, 5e-324):
            assert sf.lp_norm(sf.constant(c), 2.0) == c
        assert sf.lp_norm(sf.constant(0.0), 2.0) == 0.0

    def test_lp_beyond_p_1023(self):
        # (|v|/m)^p < 2^p overflows for p >= 1024 unless m is the row max
        for p in (1023.0, 1024.0, 2000.0, 1e300):
            assert sf.lp_norm(sf.constant(-1.5), p) == 1.5
        assert sf.lp_norm(sf.constant(0.0), 2000.0) == 0.0
        f = F([0, 0.25, 1], [3.0, -1.0])
        assert sf.lp_norm(f, 2000.0) == pytest.approx(3.0 * 0.25**(1 / 2000), rel=1e-15)

    @given(f=moderate_functions(), exponent=st.floats(-300.0, 300.0), negative=st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_lp_homogeneous(self, f, exponent, negative):
        c = -(10.0**exponent) if negative else 10.0**exponent
        for p in (1.0, 2.0, 3.5, math.inf):
            want = abs(c) * sf.lp_norm(f, p)
            assert sf.lp_norm(f.scale(c), p) == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_lp_rows_match_scalar(self, rng):
        lengths = np.diff(np.concatenate(([0.0], np.sort(rng.uniform(0, 1, 5)), [1.0])))
        breaks = np.concatenate(([0.0], np.cumsum(lengths)))
        breaks[-1] = 1.0
        scales = np.array([[1.0], [1e-200], [1e200], [0.0], [1e-160], [3.0]])
        V = rng.uniform(-4.0, 4.0, size=(6, 6)) * scales
        for p in (1.0, 2.0, 3.5, 2000.0, math.inf):
            got = sf.lp_norm_rows(V, lengths, p)
            for row, g in zip(V, got):
                assert g == pytest.approx(sf.lp_norm(sf.StepFunction(breaks, row), p), rel=1e-12)


class TestCombination:
    def test_linear_combination(self):
        f = sf.indicator(0.5)
        g = F([0, 0.25, 1], [0.0, 1.0])
        h = linear_combination([f, g], [2.0, -1.0])
        assert h(0.2) == 2.0
        assert h(0.4) == 1.0
        assert h(0.9) == -1.0

    def test_values_on_cell_between_adjacent_doubles(self):
        # the midpoint of (0.1, nextafter(0.1)] rounds down onto 0.1
        up = np.nextafter(0.1, 1.0)
        f = F([0, 0.1, 1], [1.0, 2.0])
        assert list(sf.values_on(f, np.array([0.0, 0.1, up, 1.0]))) == [1.0, 2.0, 2.0]
        h = linear_combination([f, F([0, up, 1], [0.0, 1.0])], [1.0, 1.0])
        assert list(h.breakpoints) == [0.0, 0.1, up, 1.0]
        assert list(h.values) == [1.0, 2.0, 3.0]

    def test_multiply(self):
        f = sf.indicator(0.5)
        assert sf.integral(multiply(f, f)) == 0.5


class TestFileFormat:
    def test_roundtrip(self, tmp_path):
        f = F([0, 0.2, 0.5, 1], [1.0, 4.0, 2.0])
        path = tmp_path / "f.stepfn"
        write_stepfn(f, path)
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
