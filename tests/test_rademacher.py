import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    assert_same_step_function,
    linear_combination,
    multiply,
    signed_sums,
    validating_canonical,
)
from rispaces import orlicz as ol
from rispaces import rademacher as rd
from rispaces import stepfn as sf
from rispaces import spaces as sp
from rispaces._signdist_py import enumerate_signed_sums as enum_py


class TestRademacherFunctions:
    def test_r1(self):
        r = rd.rademacher(1)
        assert r(0.25) == 1.0
        assert r(0.75) == -1.0

    def test_r2_quarters(self):
        r = rd.rademacher(2)
        assert [r(t) for t in (0.2, 0.4, 0.7, 0.9)] == [1.0, -1.0, 1.0, -1.0]

    def test_mean_zero(self):
        for n in (1, 3, 7):
            assert sf.integral(rd.rademacher(n)) == 0.0

    def test_orthogonality(self):
        prod = multiply(rd.rademacher(3), rd.rademacher(5))
        assert sf.integral(prod) == 0.0

    def test_rejects_out_of_range(self):
        for n in (0, -1, rd.MAX_ENUM_N + 1):
            with pytest.raises(rd.RademacherError):
                rd.rademacher(n)


class TestSignedSum:
    def test_equal_plus(self):
        s = rd.signed_sum([1.0, 1.0], [1, 1])
        assert [s(t) for t in (0.2, 0.5, 0.7, 1.0)] == [2.0, 0.0, 0.0, -2.0]

    def test_negation(self):
        s1 = rd.signed_sum([1.0, 2.0], [1, -1])
        s2 = rd.signed_sum([1.0, 2.0], [-1, 1])
        assert s2 == -s1

    def test_one_two_mixed(self):
        s = rd.signed_sum([1.0, 2.0], [1, -1])
        assert [s(t) for t in (0.2, 0.45, 0.7, 0.95)] == [-1.0, 3.0, -3.0, 1.0]

    def test_rejects_bad_signs(self):
        with pytest.raises(rd.RademacherError):
            rd.signed_sum([1.0], [0])

    @pytest.mark.parametrize("scale", [1e-5, 1.0, 1e5])
    def test_matches_r_i_loop(self, scale, rng):
        for n in (1, 2, 5, 11, 16):
            coeffs = rng.normal(size=n) * scale
            coeffs[n // 2] = 0.0 if n % 2 else -0.0  # signed zeros keep their bits too
            signs = rng.choice([-1, 1], size=n)
            want = sf.StepFunction(rd._dyadic_breaks(n), _signed_sum_loop(coeffs, signs))
            assert _bitwise_equal(rd.signed_sum(coeffs, signs), want)

    def test_matches_explicit_combination(self):
        coeffs = [0.7, -1.3, 2.1]
        signs = [1, -1, 1]
        fns = [rd.rademacher(i + 1) for i in range(3)]
        want = linear_combination(fns, [s * c for s, c in zip(signs, coeffs)])
        assert rd.signed_sum(coeffs, signs) == want


def _signed_sum_loop(coeffs, signs) -> np.ndarray:
    """Values of sum_i signs[i] * coeffs[i] * r_i on the dyadic intervals,
    one r_i at a time: how `signed_sum` built them before the kernel."""
    n = len(coeffs)
    idx = np.arange(1 << n)
    vals = np.zeros(1 << n)
    for i in range(n):
        r_i = 1.0 - 2.0 * ((idx >> (n - 1 - i)) & 1)
        vals = vals + (float(signs[i]) * coeffs[i]) * r_i
    return vals


class TestSumRearrangement:
    def test_two_equal(self):
        r = rd.sum_rearrangement([1.0, 1.0])
        assert list(r.values) == [2.0, 0.0]
        assert list(r.breakpoints) == [0.0, 0.5, 1.0]

    def test_three_equal(self):
        r = rd.sum_rearrangement([1.0, 1.0, 1.0])
        assert list(r.values) == [3.0, 1.0]
        assert list(r.breakpoints) == [0.0, 0.25, 1.0]

    def test_four_equal_l1(self):
        r = rd.sum_rearrangement([1.0] * 4)
        assert sf.lp_norm(r, 1.0) == pytest.approx(1.5, abs=1e-15)

    def test_binomial_matches_enumeration(self):
        # exactly-representable coefficient keeps both paths bitwise equal
        for n in (2, 5, 12, 20):
            for a in (1.0, 0.5, 3.0):
                binom = rd.sum_rearrangement([a] * n)
                sums = np.abs(enum_py(np.full(n, a)))
                vals, counts = np.unique(sums, return_counts=True)
                cum = np.concatenate(([0.0], np.cumsum(counts[::-1])))
                breaks, built = rd._atoms_to_rows(vals[::-1][None, :], cum, np.array([len(vals)]),
                                                  1 << n)
                assert built[0]
                assert binom == sf.StepFunction(breaks[0], vals[::-1])

    def test_matches_rearranged_signed_sum(self, rng):
        for n in (1, 4, 8, 12):
            coeffs = rng.normal(size=n)
            full = rd.signed_sum(coeffs, [1] * n)
            assert rd.sum_rearrangement(coeffs) == sf.rearrange(full)

    def test_symmetry(self, rng):
        coeffs = rng.normal(size=7)
        base = rd.sum_rearrangement(coeffs)
        assert rd.sum_rearrangement(-coeffs) == base  # sign flips are exact
        # permutations re-round the accumulation, so compare pointwise
        perm = rd.sum_rearrangement(coeffs[::-1])
        breaks = sf.common_breakpoints([base, perm])
        assert np.allclose(
            sf.values_on(base, breaks), sf.values_on(perm, breaks), atol=1e-12
        )

    def test_enumerated_atoms_match_validating_constructor(self, rng, monkeypatch):
        cases = [rng.normal(size=n) for n in (2, 5, 9, 13)]
        # integer coefficients: many sums coincide and are merged into one atom
        cases += [rng.integers(-3, 4, size=n).astype(float) for n in (3, 7, 12)]
        cases += [np.array([1.0, -1.0]), np.array([0.0, 2.0, 0.0])]
        fast = [rd.sum_rearrangement(a) for a in cases]
        calls = validating_canonical(monkeypatch)
        for a, f in zip(cases, fast):
            assert_same_step_function(f, rd.sum_rearrangement(a))
        assert len(calls) == len(cases)

    def test_binomial_zero_coefficients_give_one_atom(self, monkeypatch):
        calls = validating_canonical(monkeypatch)
        for n in (1, 2, 7, 60):
            r = rd.sum_rearrangement([0.0] * n)
            assert list(r.breakpoints) == [0.0, 1.0]
            assert list(r.values) == [0.0]
            assert_same_step_function(r, sf.constant(0.0))
        # only n = 1 is canonical as built; for n >= 2 the values 0.0 repeat
        # and go through the validating constructor, which merges them
        assert calls == [1]

    def test_caps(self):
        with pytest.raises(rd.RademacherError):
            rd.sum_rearrangement(list(np.arange(rd.MAX_ENUM_N + 1, dtype=float)))
        with pytest.raises(rd.RademacherError):
            rd.sum_rearrangement([1.0] * (rd.MAX_EQUAL_N + 1))
        rd.sum_rearrangement([1.0] * rd.MAX_EQUAL_N)  # fast path still fine


def _mixed_rows(rng, n: int) -> np.ndarray:
    """Rows of n coefficients, shuffled: random, all equal, zero-led,
    integer, all zero, and random rows scaled by 1e200 and 1e-200."""
    rows = [rng.normal(size=n) for _ in range(3)]
    rows += [np.full(n, c) for c in (1.0, 0.1, -2.5, 1e-200)]
    rows += [np.concatenate(([0.0], rng.normal(size=n - 1)))]
    rows += [rng.integers(-3, 4, size=n).astype(float) for _ in range(2)]
    rows += [np.zeros(n), np.full(n, -0.0)]
    rows += [rng.normal(size=n) * scale for scale in (1e200, 1e-200)]
    rows = np.array(rows)
    return rows[rng.permutation(len(rows))]


class TestSumRearrangementRows:
    """Each row of `sum_rearrangement_rows` is bitwise its one-row case."""

    @staticmethod
    def _assert_rows_match(coeffs, rows):
        assert len(rows) == len(coeffs)
        width = rows.values.shape[1]
        lengths = rows.lengths
        for i, a in enumerate(coeffs):
            f = rd.sum_rearrangement(a)
            k = int(rows.counts[i])
            assert k == f.k
            assert rows.breakpoints[i, : k + 1].tobytes() == f.breakpoints.tobytes()
            assert rows.values[i, :k].tobytes() == f.values.tobytes()
            assert lengths[i, :k].tobytes() == f.lengths.tobytes()
            # padding: values 0.0, breakpoints 1.0, so cells of length 0
            assert np.all(rows.values[i, k:width] == 0.0)
            assert np.all(rows.breakpoints[i, k + 1 :] == 1.0)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_rows_match_one_row_case(self, n, rng, monkeypatch):
        coeffs = _mixed_rows(rng, n)
        # both kinds of rows, and zero rows, which the validating
        # constructor merges: one row at a time
        self._assert_rows_match(coeffs, rd.sum_rearrangement_rows(coeffs))
        equal = (coeffs == coeffs[:, :1]).all(axis=1)
        batches = [coeffs[~equal], coeffs[equal & (coeffs[:, 0] != 0.0)], coeffs[~equal][:1]]
        if n == 1:  # every row is equal, and a zero row is canonical as built
            batches = [coeffs, coeffs[:1]]
        for batch in batches:
            with monkeypatch.context() as m:  # one batch, no row alone
                m.setattr(rd, "sum_rearrangement", None)
                rows = rd.sum_rearrangement_rows(batch)
            self._assert_rows_match(batch, rows)

    def test_first_row_over_a_cap_raises(self):
        n = rd.MAX_ENUM_N + 1
        coeffs = np.array([np.ones(n), np.arange(n, dtype=float)])
        with pytest.raises(rd.RademacherError, match="enumeration cap"):
            rd.sum_rearrangement_rows(coeffs)
        equal = rd.sum_rearrangement_rows(coeffs[:1])
        assert equal.row(0) == rd.sum_rearrangement(coeffs[0])
        n = rd.MAX_EQUAL_N + 1
        with pytest.raises(rd.RademacherError, match="equal-coefficient cap"):
            rd.sum_rearrangement_rows(np.array([np.ones(n), np.arange(n, dtype=float)]))

    @pytest.mark.parametrize("big", [[1e308, 0.9e308], [1e308, 1e308]])
    def test_values_that_overflow_raise(self, big):
        # as their one-row case does: the sums, or |a| n, are not finite
        coeffs = np.array([[1.0, 2.0], big])
        with np.errstate(over="ignore"):
            for a in (coeffs, coeffs[1:]):
                with pytest.raises(sf.StepFunctionError, match="finite"):
                    rd.sum_rearrangement_rows(a)
            with pytest.raises(sf.StepFunctionError, match="finite"):
                rd.sum_rearrangement(coeffs[1])


def _fraction_reference(coeffs) -> sf.StepFunction:
    """The distribution by full enumeration (binomial weights for equal
    coefficients), with each breakpoint rounded from an exact rational."""
    a = np.asarray(coeffs, dtype=np.float64)
    n = len(a)
    if np.all(a == a[0]):
        c = abs(float(a[0]))
        atoms = [(c * (n - 2 * k), math.comb(n, k) * (1 if 2 * k == n else 2))
                 for k in range(n // 2 + 1)]
    else:
        values, counts = np.unique(np.abs(enum_py(a)), return_counts=True)
        atoms = list(zip(values[::-1], counts[::-1]))
    cum = 0
    breaks = [0.0]
    for _, count in atoms:
        cum += int(count)
        breaks.append(float(Fraction(cum, 1 << n)))
    breaks[-1] = 1.0
    return sf.StepFunction(np.array(breaks), np.array([v for v, _ in atoms]))


def _bitwise_equal(f: sf.StepFunction, g: sf.StepFunction) -> bool:
    return (f.breakpoints.tobytes() == g.breakpoints.tobytes()
            and f.values.tobytes() == g.values.tobytes())


def _unit_vector(n: int) -> np.ndarray:
    a = np.random.default_rng(n).normal(size=n)
    return a / np.linalg.norm(a)


class TestExactDistribution:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=20))
    def test_random_coefficients_match_fraction_reference(self, coeffs):
        assert _bitwise_equal(rd.sum_rearrangement(coeffs), _fraction_reference(coeffs))

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from([1.0, 0.1, 1.0 / 3.0, 2.5e-300, -2.5])
        | st.floats(-1e300, 1e300, allow_nan=False),
        st.integers(1, rd.MAX_EQUAL_N),
    )
    def test_equal_coefficients_match_fraction_reference(self, c, n):
        coeffs = [c] * n
        assert _bitwise_equal(rd.sum_rearrangement(coeffs), _fraction_reference(coeffs))

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(-3, 3), min_size=1, max_size=20))
    def test_integer_coefficients_match_fraction_reference(self, coeffs):
        coeffs = [float(c) for c in coeffs]
        assert _bitwise_equal(rd.sum_rearrangement(coeffs), _fraction_reference(coeffs))

    @pytest.mark.parametrize("n", [17, 20])
    @pytest.mark.parametrize("case", ["unit", "lattice", "zero", "negative zero"])
    def test_large_n_match_fraction_reference(self, n, case):
        # the lists above rarely reach these lengths; a unit vector's sums all
        # differ, and the other cases tie
        a = _unit_vector(n)
        if case == "lattice":
            a = np.random.default_rng(n).integers(-3, 4, size=n).astype(float)
        elif case == "zero":
            a[n // 2] = 0.0  # every sum twice
        elif case == "negative zero":
            a[0] = -0.0  # the enumeration starts at -0.0
        f = rd.sum_rearrangement(a)
        assert _bitwise_equal(f, _fraction_reference(a))
        assert (f.k == 1 << (n - 1)) == (case == "unit")

    def test_rejects_denominator_not_power_of_two(self):
        for bad in (0, 3, 12, 1 << 61):
            with pytest.raises(rd.RademacherError):
                rd._atoms_to_rows(np.array([[1.0]]), np.array([0.0, bad]), np.array([1]), bad)


class TestKernel:
    def test_half_enumeration_mirrors_full(self, rng):
        # sums with eps_0 = -1 are the exact negations of those with eps_0 = +1
        for n in (1, 2, 7, 12):
            a = rng.normal(size=n)
            h = enum_py(a[1:], start=a[0])
            assert len(h) == 1 << (n - 1)
            assert np.array_equal(np.sort(enum_py(a)), np.sort(np.concatenate([h, -h])))

    def test_small_case_by_hand(self):
        got = np.sort(enum_py(np.array([1.0, 2.0])))
        assert np.array_equal(got, [-3.0, -1.0, 1.0, 3.0])

    def test_lexicographic_order(self):
        # with coefficients 2^(n-1), ..., 2, 1 the sum of row r is 2^n - 1 - 2r
        for n in (0, 1, 3, 8):
            powers = 2.0 ** np.arange(n - 1, -1, -1)
            want = (1 << n) - 1 - 2.0 * np.arange(1 << n)
            assert np.array_equal(enum_py(powers), want)
            rows = enum_py(np.stack([powers, -powers], axis=1), start=[0.0, 0.0])
            assert np.array_equal(rows, np.stack([want, -want], axis=1))

    @pytest.mark.parametrize("shape", [(0,), (1,), (9,), (0, 3), (1, 3), (7, 4)])
    @pytest.mark.parametrize("exponent", [-5, 0, 5])
    def test_rows_are_left_to_right_sums(self, shape, exponent, rng):
        # bitwise, in the order of the reference, for scalars and for rows,
        # into a new array or into `out`, the transpose of a C-ordered array
        coeffs = rng.normal(size=shape) * 10.0**exponent
        start = rng.normal(size=shape[1:]) * 10.0**exponent
        size = (1 << shape[0], *shape[1:])
        out = np.full(size[::-1], np.nan).T
        for got, want in (
            (enum_py(coeffs), signed_sums(coeffs, np.zeros(shape[1:]))),
            (enum_py(coeffs, start=start), signed_sums(coeffs, start)),
        ):
            assert got.shape == size
            assert got.tobytes() == want.tobytes()
        assert enum_py(coeffs, start=start, out=out) is out
        assert out.tobytes() == want.tobytes()


class TestNorms:
    def test_single_function_unit_norm(self):
        for E in (sp.lp_space(1.0), sp.lp_space(2.0), sp.linf_space()):
            assert rd.rademacher_sum_norm([1.0], E) == pytest.approx(1.0, rel=1e-12)

    def test_l1_equal_four(self):
        assert rd.rademacher_sum_norm([1.0] * 4, sp.lp_space(1.0)) == pytest.approx(
            1.5, abs=1e-15
        )

    def test_l2_identity(self, rng):
        E = sp.lp_space(2.0)
        for n in (1, 2, 5, 10):
            a = rng.normal(size=n)
            assert rd.rademacher_sum_norm(a, E) == pytest.approx(
                float(np.linalg.norm(a)), rel=1e-10
            )


class TestAllocation:
    """Peak bytes that tracemalloc sees, in rows of 2^17 doubles, for a sum
    of 18 Rademacher functions: the sums are sorted and compacted in their
    own buffer, and the root finder evaluates Phi into one workspace and
    f/lam a chunk at a time."""

    ROW = 8 << 17

    def _peak_rows(self, fn) -> float:
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1] / self.ROW
        finally:
            tracemalloc.stop()

    def test_sum_rearrangement(self):
        a = _unit_vector(18)
        # the enumeration buffer, now the values, and the breakpoints
        assert self._peak_rows(lambda: rd.sum_rearrangement(a)) < 3.0

    @pytest.mark.parametrize("desc", ["exp2", "power:2", "hinge:1"])
    def test_luxemburg_norm(self, desc):
        f = rd.sum_rearrangement(_unit_vector(18))
        assert f.k == 1 << 17
        phi = ol.parse_orlicz(desc)
        # lengths, Phi(f/lam) and one chunk
        assert self._peak_rows(lambda: ol.luxemburg_norm(f, phi)) < 2.25
