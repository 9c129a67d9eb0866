import functools
import inspect
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import (batch_functions, bits, hinge_norm_exact, linear_combination, signed_sums,
                      step_functions)
from rispaces import experiments as ex
from rispaces import orlicz as ol
from rispaces import spaces as sp
from rispaces import stepfn as sf
from rispaces.rademacher import sum_rearrangement


class TestOrliczFunctions:
    def test_parse_roundtrip(self):
        for d in ("exp2", "power:2", "hinge:1.5"):
            assert ol.parse_orlicz(d).descriptor == d

    def test_parse_rejects_unknown(self):
        with pytest.raises(ol.OrliczError):
            ol.parse_orlicz("tanh")

    def test_power_rejects_p_below_one(self):
        with pytest.raises(ol.OrliczError):
            ol.power(0.5)

    def test_hinge_rejects_negative_offset(self):
        with pytest.raises(ol.OrliczError):
            ol.hinge(-1.0)
        # Phi = 0 for an infinite offset: no norm exists, whatever the input
        for a in (math.inf, math.nan):
            with pytest.raises(ol.OrliczError, match="hinge offset must be finite"):
                ol.hinge(a)

    def test_validation_rejects_concave(self):
        with pytest.raises(ol.OrliczError, match="convexity"):
            ol.custom_orlicz(lambda s: np.sqrt(np.abs(s)), "sqrt")

    def test_validation_rejects_odd(self):
        with pytest.raises(ol.OrliczError, match="even"):
            ol.custom_orlicz(lambda s: np.asarray(s, float), "identity")

    def test_validation_rejects_nonzero_at_origin(self):
        with pytest.raises(ol.OrliczError, match="expected 0"):
            ol.custom_orlicz(lambda s: s * s + 1.0, "shifted")

    def test_validation_accepts_overflow_above_one(self):
        # 12^2000 and exp(12^3) overflow to inf on the grid, above s = 1
        assert ol.power(2000.0).p == 2000.0
        phi = ol.custom_orlicz(lambda s: np.expm1(np.abs(s) ** 3), "exp3")
        assert float(phi(1.0)) == pytest.approx(math.e - 1.0, rel=1e-15)

    @pytest.mark.parametrize("fn, match", [
        (lambda s: np.where(np.abs(s) > 0.5, np.inf, s * s), "non-finite"),
        (lambda s: np.where(np.abs(s) > 5.0, np.nan, s * s), "non-finite"),
        (lambda s: np.where(s > 5.0, np.inf, s * s), "not even"),
        (lambda s: np.where((np.abs(s) > 5.0) & (np.abs(s) < 8.0), np.inf, s * s), "non-decreasing"),
    ])
    def test_validation_with_inf_values(self, fn, match):
        with pytest.raises(ol.OrliczError, match=match):
            ol.custom_orlicz(fn, "inf")

    def test_exp2_values(self):
        phi = ol.exp_square()
        assert phi(0.0) == 0.0
        assert float(phi(1.0)) == pytest.approx(math.e - 1.0, rel=1e-15)


# signed zeros, subnormals, infinities, and values whose Phi overflows
PHI_INPUTS = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310, 1e-160, 0.5, -1.0,
                       1.0 + 2.0 ** -52, -3.0, 26.6, 27.0, -1e154, 1e200, 1.7e308,
                       -1.7976931348623157e308, math.inf, -math.inf])


class TestEvaluateInto:
    """phi(s, out=y) writes Phi(s) into y, with the bits of phi(s) and of
    the plain numpy expression of each catalog Phi; y may be s itself."""

    @staticmethod
    def _check(phi, want):
        y = np.full_like(PHI_INPUTS, np.nan)
        s = PHI_INPUTS.copy()
        with np.errstate(over="ignore", invalid="ignore"):
            got = phi(PHI_INPUTS, out=y)
            fresh = phi(PHI_INPUTS)
            in_place = phi(s, out=s)
        assert got is y and in_place is s
        assert y.tobytes() == fresh.tobytes() == s.tobytes() == want.tobytes()

    def test_exp2(self):
        with np.errstate(over="ignore"):
            self._check(ol.exp_square(), np.expm1(PHI_INPUTS * PHI_INPUTS))

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.5, 4.0 / 3.0, 2000.0])
    def test_power(self, p):
        with np.errstate(over="ignore"):
            self._check(ol.power(p), np.abs(PHI_INPUTS) ** p)

    @pytest.mark.parametrize("a", [0.0, 1.0, 1e308])
    def test_hinge(self, a):
        self._check(ol.hinge(a), np.maximum(np.abs(PHI_INPUTS) - a, 0.0))

    def test_custom_phi_is_copied_into_out(self):
        phi = ol.custom_orlicz(lambda s: s * s, "square")
        assert not phi.takes_out
        with np.errstate(over="ignore"):
            self._check(phi, PHI_INPUTS * PHI_INPUTS)

    def test_only_catalog_bodies_take_out(self):
        for phi in (ol.exp_square(), ol.power(2.0), ol.hinge(1.0)):
            assert phi.takes_out
            assert not ol.OrliczFunction(phi.fn, phi.descriptor, phi.dphi).takes_out


class TestModular:
    def test_constant_power(self):
        # constant 2, Phi(s)=s^2, lam=2
        assert ol.modular(sf.constant(2.0), ol.power(2.0), 2.0) == 1.0

    def test_large_lam_limit(self):
        f = sf.step_function([0, 0.2, 1], [5.0, -1.0])
        m = ol.modular(f, ol.exp_square(), 1e6 * sf.lp_norm(f, math.inf))
        assert 0.0 <= m < 1e-10

    def test_exp2_indicator(self):
        m = ol.modular(sf.indicator(0.25), ol.exp_square(), 1.0)
        assert m == pytest.approx(0.25 * (math.e - 1.0), rel=1e-15)

    def test_rejects_nonpositive_lam(self):
        with pytest.raises(ol.OrliczError):
            ol.modular(sf.constant(1.0), ol.power(2.0), 0.0)

    @pytest.mark.parametrize("lam", [math.nan, 0.0, -0.0, -1.0])
    def test_rejects_nan_and_nonpositive_lam(self, lam):
        with pytest.raises(ol.OrliczError, match="lam must be positive"):
            ol.modular(sf.constant(1.0), ol.exp_square(), lam)

    def test_monotone_in_lam(self, rng):
        phi = ol.exp_square()
        f = sf.step_function([0, 0.3, 1], [2.0, 0.5])
        lams = np.geomspace(0.5, 50.0, 20)
        mods = [ol.modular(f, phi, lam) for lam in lams]
        assert all(b < a for a, b in zip(mods, mods[1:]))


class TestLuxemburgNorm:
    def test_zero_function(self):
        assert ol.luxemburg_norm(sf.constant(0.0), ol.exp_square()) == 0.0

    def test_power_constant(self):
        for p in (1.0, 2.0, 3.5):
            n = ol.luxemburg_norm(sf.constant(-4.0), ol.power(p))
            assert n == pytest.approx(4.0, rel=1e-11)

    def test_exp2_indicator_closed_form(self):
        # solve t * (exp(1/lam^2) - 1) = 1 for lam
        n = ol.luxemburg_norm(sf.indicator(0.25), ol.exp_square())
        assert n == pytest.approx(1.0 / math.sqrt(math.log(5.0)), rel=1e-11)

    def test_hinge_constant(self):
        n = ol.luxemburg_norm(sf.constant(1.0), ol.hinge(2.0))
        assert n == pytest.approx(1.0 / 3.0, rel=1e-11)

    def test_one_sided_correctness(self):
        phi = ol.exp_square()
        f = sf.step_function([0, 0.4, 1], [3.0, 0.2])
        lam = ol.luxemburg_norm(f, phi)
        assert ol.modular(f, phi, lam) <= 1.0
        assert ol.modular(f, phi, lam * (1.0 - 1e-9)) > 1.0

    def test_norm_far_above_sup(self):
        # Phi = 1e300 s^2: the norms 1e150 and 1e308 of the constants 1 and
        # 1e158 lie beyond 2^200 ||f||_inf, far up the galloping search
        phi = ol.custom_orlicz(lambda s: 1e300 * s * s)
        for c, want in ((1.0, 1e150), (1e158, 1e308)):
            f = sf.constant(c)
            scalar = ol.luxemburg_norm(f, phi)
            i, rows = ol.luxemburg_norm_max(np.array([[c]]), f.lengths, phi)
            assert scalar == pytest.approx(want, rel=1e-12, abs=0.0)
            assert i == 0 and rows == pytest.approx(want, rel=1e-12, abs=0.0)
            assert ol.modular(f, phi, scalar) <= 1.0
        with pytest.raises(ol.OrliczError, match="exceeds 1 even at the largest double"):
            ol.luxemburg_norm(sf.constant(1e160), phi)

    def test_norm_near_the_largest_double(self):
        # doubling and Newton's upper probe stop at the largest double, not inf
        big = float(np.finfo(np.float64).max)
        cases = (
            (big, ol.power(2.0), big),
            (1e308, ol.custom_orlicz(lambda s: 2.0 * s * s), math.sqrt(2.0) * 1e308),
        )
        for c, phi, want in cases:
            f = sf.constant(c)
            i, rows = ol.luxemburg_norm_max(np.array([[c]]), f.lengths, phi)
            assert i == 0
            for norm in (ol.luxemburg_norm(f, phi), rows):
                assert abs(norm - want) <= 1e-12 * want
                assert ol.modular(f, phi, norm) <= 1.0
        # the norm 1.7e308 / sqrt(log 2) = 2.04e308 is not a double
        f, phi = sf.constant(1.7e308), ol.exp_square()
        with pytest.raises(ol.OrliczError, match="exceeds 1 even at the largest double"):
            ol.luxemburg_norm(f, phi)
        with pytest.raises(ol.OrliczError, match="exceeds 1 even at the largest double"):
            ol.luxemburg_norm_max(f.values[None, :], f.lengths, phi)

    @given(step_functions())
    @settings(max_examples=60, deadline=None)
    def test_homogeneity(self, f):
        phi = ol.power(2.0)
        base = ol.luxemburg_norm(f, phi)
        scaled = ol.luxemburg_norm(f.scale(3.5), phi)
        assert scaled == pytest.approx(3.5 * base, rel=1e-9, abs=1e-12)

    @given(step_functions(max_pieces=5), step_functions(max_pieces=5))
    @settings(max_examples=60, deadline=None)
    def test_triangle(self, f, g):
        phi = ol.exp_square()
        h = linear_combination([f, g], [1.0, 1.0])
        assert ol.luxemburg_norm(h, phi) <= (
            ol.luxemburg_norm(f, phi) + ol.luxemburg_norm(g, phi) + 1e-9
        )

    @given(step_functions())
    @settings(max_examples=60, deadline=None)
    def test_rearrangement_invariance(self, f):
        phi = ol.exp_square()
        a = ol.luxemburg_norm(f, phi)
        b = ol.luxemburg_norm(sf.rearrange(f), phi)
        assert a == pytest.approx(b, rel=1e-9, abs=1e-12)

    @given(step_functions(max_pieces=5))
    @settings(max_examples=60, deadline=None)
    def test_lattice(self, f):
        # |f| <= |g| pointwise for g = 2|f| implies norm(f) <= norm(g)
        phi = ol.exp_square()
        g = abs(f).scale(2.0)
        assert ol.luxemburg_norm(f, phi) <= ol.luxemburg_norm(g, phi) + 1e-9

    def test_lp_specialization(self, rng):
        from rispaces.experiments import random_step_function

        for p in (1.0, 2.0, 3.0):
            phi = ol.power(p)
            for _ in range(20):
                f = random_step_function(rng)
                assert ol.luxemburg_norm(f, phi) == pytest.approx(
                    sf.lp_norm(f, p), rel=1e-9, abs=1e-12
                )


MAX_PHIS = ("exp2", "power:1", "power:2", "power:3.5", "hinge:1")
# a custom Phi that is even only to the validator's 1e-9
ASYMMETRIC = ol.custom_orlicz(lambda s: s * s * (1.0 + 1e-10 * np.sign(s)), "asymmetric")


def _close(got, want, rtol=2e-12):
    return abs(got - want) <= rtol * want


class TestLuxemburgNormMax:
    """The largest Luxemburg norm among many rows, by one pruned root find."""

    @pytest.mark.parametrize("desc", MAX_PHIS)
    @given(xs=st.lists(step_functions(max_pieces=4), min_size=1, max_size=8))
    @settings(max_examples=30, deadline=None)
    # one Newton step is exact here (power:1, hinge:1), so rows are pruned
    # only if that step's point is evaluated
    @example(xs=[sf.constant(0.25), sf.constant(-1.0)])
    @example(xs=[sf.constant(4.0), sf.constant(-1.0)])
    def test_matches_largest_scalar_norm(self, desc, xs):
        phi = ol.parse_orlicz(desc)
        breaks, dl, X = ex._refinement_matrix(xs)
        S = signed_sums(X)
        scalar = [ol.luxemburg_norm(sf.StepFunction(breaks, row), phi) for row in S]
        want = max(scalar)
        i, norm = ol.luxemburg_norm_max(S, dl, phi)
        assert _close(norm, want)
        assert _close(scalar[i], want)
        signs, best = ex.sign_bruteforce(xs, sp.orlicz_space(phi))
        assert signs[0] == 1
        assert _close(best, want)
        row = np.asarray(signs, dtype=float) @ X
        assert _close(ol.luxemburg_norm(sf.StepFunction(breaks, row), phi), want)

    @pytest.mark.parametrize("desc", [*MAX_PHIS, "power:3", "hinge:2", "asymmetric"])
    def test_one_row_is_the_scalar_norm(self, desc, rng):
        # bitwise, on negative values too, also for a Phi that is even only
        # to the validator's tolerance: both evaluate the signed modular
        phi = ASYMMETRIC if desc == "asymmetric" else ol.parse_orlicz(desc)
        fs = [sf.constant(-1.0), sf.step_function([0, 0.3, 1], [-2.0, 0.5])]
        fs += [ex.random_step_function(rng) for _ in range(30)]
        for f in fs:
            scalar = ol.luxemburg_norm(f, phi)
            assert ol.luxemburg_norm_max(f.values[None, :], f.lengths, phi) == (0, scalar)
            assert ol.modular(f, phi, scalar) <= 1.0

    def test_all_zero(self):
        zeros = np.zeros((4, 3))
        assert ol.luxemburg_norm_max(zeros, np.full(3, 1.0 / 3.0), ol.exp_square()) == (0, 0.0)

    def test_ties_go_to_the_first_row(self):
        lengths = np.array([0.5, 0.5])
        phi = ol.power(2.0)
        assert ol.luxemburg_norm_max(np.array([[0.0, 1.0], [1.0, 0.0]]), lengths, phi)[0] == 0
        V = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        i, norm = ol.luxemburg_norm_max(V, lengths, phi)
        assert i == 1 and norm == pytest.approx(math.sqrt(0.5), rel=1e-12)

    def test_tied_disjoint_indicators(self):
        xs = [sf.indicator(0.5), sf.step_function([0, 0.5, 1], [0.0, 1.0])]
        signs, best = ex.sign_bruteforce(xs, sp.orlicz_space(ol.power(2.0)))
        assert signs == (1, 1)
        assert best == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("desc", MAX_PHIS)
    def test_single_and_duplicated_functions(self, desc):
        phi = ol.parse_orlicz(desc)
        x = sf.step_function([0, 0.3, 1], [2.0, -0.5])
        E = sp.orlicz_space(phi)
        signs, best = ex.sign_bruteforce([x], E)
        assert signs == (1,)
        assert _close(best, ol.luxemburg_norm(x, phi))
        signs, best = ex.sign_bruteforce([x, x, x], E)
        assert signs == (1, 1, 1)
        assert _close(best, ol.luxemburg_norm(x.scale(3.0), phi))

    def test_least_subnormal_rows(self):
        V = np.array([[0.0], [5e-324], [5e-324]])
        assert ol.luxemburg_norm_max(V, np.array([1.0]), ol.power(3.0)) == (1, 5e-324)

    @pytest.mark.parametrize("desc", ["power:3", "hinge:1"])
    def test_norm_far_below_sup(self, desc):
        # t^(1/3) and t/(1+t) at t = 1e-300: below 2^-200 times the sup, far
        # down the galloping search
        phi = ol.parse_orlicz(desc)
        f = sf.indicator(1e-300)
        i, norm = ol.luxemburg_norm_max(np.array([[0.5, 0.0], [1.0, 0.0]]), f.lengths, phi)
        assert i == 1
        assert norm < 2.0 ** -200
        assert _close(norm, ol.luxemburg_norm(f, phi))
        assert norm == pytest.approx(TestTinyNorms.CLOSED[desc](1e-300), rel=1e-12, abs=0.0)
        assert ol.modular(f, phi, norm) <= 1.0


ROWS_PHIS = {
    "exp2": ol.exp_square(),
    "hinge:1": ol.hinge(1.0),
    "hinge:1e308": ol.hinge(1e308),
    "power:3.5 without p": ol._without_p(ol.power(3.5)),
    "custom exp2": ol.custom_orlicz(lambda s: np.expm1(np.square(s)), "exp2 without dphi"),
}
# rows at the ends of the double range, where a one-row norm may raise
_EDGE_ROWS = (sf.indicator(1e-310), sf.indicator(5e-324), sf.constant(5e-324),
              sf.constant(1.7e308), sf.indicator(1.0), sf.constant(0.0))


class TestLuxemburgNormRows:
    """`luxemburg_norm_rows` gives each row bitwise its one-row
    `luxemburg_norm`, or raises the OrliczError of the first row that does."""

    @pytest.mark.parametrize("desc", list(ROWS_PHIS))
    @given(
        # rows of more than 32 cells too, where padding would change the dot's order
        fs=st.lists(st.one_of(batch_functions(), batch_functions(max_pieces=80)), min_size=1,
                    max_size=8),
        scaled=st.lists(st.tuples(st.integers(0, 7), st.integers(-80, 3)), max_size=4),
        edges=st.lists(st.tuples(st.integers(0, 12), st.sampled_from(_EDGE_ROWS)), max_size=3),
    )
    @example(fs=[sf.constant(0.0), sf.constant(1.0)], scaled=[(1, -3), (1, 2)],
             edges=[(0, sf.indicator(1e-310)), (9, sf.constant(1.7e308))])
    # a row of 41 cells padded to 70: the padded dot differs in the last bit
    @example(fs=[sf.StepFunction(np.linspace(0.0, 1.0, 42), 3.0 * np.sin(np.arange(41.0))),
                 sf.StepFunction(np.linspace(0.0, 1.0, 71), np.cos(np.arange(70.0)))],
             scaled=[(0, -1)], edges=[])
    @settings(max_examples=30, deadline=None)
    def test_rows_match_one_row_norms(self, desc, fs, scaled, edges):
        phi = ROWS_PHIS[desc]
        fs = fs + [sf.StepFunction(fs[i % len(fs)].breakpoints, np.ldexp(fs[i % len(fs)].values, k))
                   for i, k in scaled]
        for i, f in edges:
            fs.insert(i % (len(fs) + 1), f)
        want = []
        for f in fs:
            try:
                want.append(ol.luxemburg_norm(f, phi))
            except ol.OrliczError as error:
                want.append(error)
        rows = sf.StepRows.stack(fs)
        errors = [str(w) for w in want if isinstance(w, ol.OrliczError)]
        if errors:
            with pytest.raises(ol.OrliczError) as info:
                ol.luxemburg_norm_rows(rows.values, rows.lengths, phi)
            assert str(info.value) == errors[0]
        else:
            assert bits(ol.luxemburg_norm_rows(rows.values, rows.lengths, phi)) == bits(want)


# rows about the `stepfn._BLOCK` cells in which a longer row's dot is summed
LONG_KS = (sf._BLOCK - 1, sf._BLOCK, sf._BLOCK + 1, 3 * sf._BLOCK + 7, 1 << 17)
LONG_PHIS = ("exp2", "power:2", "hinge:1")


def _random_step(k: int, rng) -> sf.StepFunction:
    """k cells of random lengths, with standard normal values."""
    return sf.StepFunction(np.concatenate(([0.0], np.sort(rng.random(k - 1)), [1.0])),
                           rng.standard_normal(k))


def _block_dot(x: np.ndarray, lengths: np.ndarray) -> float:
    """A row's dot by its definition: np.dot of each `_BLOCK`-cell block from
    the first cell, added left to right."""
    total = 0.0
    for j in range(0, len(x), sf._BLOCK):
        total += float(np.dot(x[j : j + sf._BLOCK], lengths[j : j + sf._BLOCK]))
    return total


class TestDriverSelection:
    """`luxemburg_norm_rows` sends a one-row batch to `luxemburg_norm_max`,
    small, above `_CHUNK` or about `_BLOCK` cells, and two or more rows to
    one `_Lockstep`: a lock-step of one row took 1.5-2.5x as long per norm."""

    @staticmethod
    def _count_drivers(monkeypatch) -> dict:
        calls = {"max": 0, "lockstep": 0}
        max_driver = ol.luxemburg_norm_max

        def counted_max(*args):
            calls["max"] += 1
            return max_driver(*args)

        class CountedLockstep(ol._Lockstep):
            def __init__(self, *args):
                calls["lockstep"] += 1
                super().__init__(*args)

        monkeypatch.setattr(ol, "luxemburg_norm_max", counted_max)
        monkeypatch.setattr(ol, "_Lockstep", CountedLockstep)
        return calls

    @pytest.mark.parametrize("desc", LONG_PHIS)
    @pytest.mark.parametrize("ks", [(5,), (ol._CHUNK + 3,), (5, 3), (ol._CHUNK + 3, 7, 5),
                                    *((k,) for k in LONG_KS), (*LONG_KS, 5)])
    def test_driver_by_row_count(self, desc, ks, monkeypatch):
        phi = ol.parse_orlicz(desc)
        rng = np.random.default_rng(len(ks))
        fs = [_random_step(k, rng) for k in ks]
        want = [ol.luxemburg_norm(f, phi) for f in fs]
        calls = self._count_drivers(monkeypatch)
        rows = sf.StepRows.stack(fs)
        norms = ol.luxemburg_norm_rows(rows.values, rows.lengths, phi)
        one_row = len(fs) == 1
        assert calls == {"max": int(one_row), "lockstep": int(not one_row)}
        assert bits(norms) == bits(want)


class TestLockstepRounds:
    """`luxemburg_norm_rows` evaluates Phi once per lock-step round, over the
    cells of every pending row, whatever their piece counts."""

    @staticmethod
    def _batch():
        rng = np.random.default_rng(5)
        fs = []
        for k in (1, 2, 3, 5, 8, 13):
            breaks = np.concatenate(([0.0], np.sort(rng.random(k - 1)), [1.0]))
            for scale in (-60, 0, 40):  # far from ||f||_inf or near it: different rounds
                fs.append(sf.StepFunction(breaks, np.ldexp(rng.standard_normal(k), scale)))
        fs.insert(4, sf.constant(0.0))
        fs.insert(11, sf.constant(0.0))
        fs.append(sf.step_function([0.0, 0.5, 1.0], [0.0, 1.0]))
        return fs

    @staticmethod
    def _one_row_counts(fs, base):
        """Each row's one-row norm, or its OrliczError, with the Phi calls and
        elements it took."""
        out = []
        for f in fs:
            phi, calls = _counting(base, base.dphi)
            try:
                result = ol.luxemburg_norm(f, phi)
            except ol.OrliczError as error:
                result = error
            out.append((result, calls[0], calls[1]))
        return out

    @pytest.mark.parametrize("desc", ["exp2", "hinge:1"])
    def test_one_phi_call_per_round(self, desc):
        base = ol.parse_orlicz(desc)
        fs = self._batch()
        assert len({f.k for f in fs}) >= 5
        one = self._one_row_counts(fs, base)
        assert len({n for _, n, _ in one if n}) > 1  # rows finish in different rounds
        phi, calls = _counting(base, base.dphi)
        rows = sf.StepRows.stack(fs)
        norms = ol.luxemburg_norm_rows(rows.values, rows.lengths, phi)
        assert bits(norms) == bits([result for result, _, _ in one])
        # one call per round, and the rounds are the longest search's; finished
        # rows leave, so each row's cells are evaluated once per its own search
        assert calls == [max(n for _, n, _ in one), sum(elems for _, _, elems in one)]

    def test_first_rows_error_is_raised(self):
        base = ol.exp_square()
        fs = self._batch()
        fs.insert(7, sf.indicator(5e-324))  # overflows up to its norm
        fs.insert(2, sf.constant(1.7e308))  # exceeds 1 at the largest double
        one = self._one_row_counts(fs, base)
        errors = [result for result, _, _ in one if isinstance(result, ol.OrliczError)]
        assert len(errors) == 2
        phi, calls = _counting(base, base.dphi)
        rows = sf.StepRows.stack(fs)
        with pytest.raises(ol.OrliczError) as info:
            ol.luxemburg_norm_rows(rows.values, rows.lengths, phi)
        assert str(info.value) == str(errors[0])
        assert calls[0] == max(n for _, n, _ in one)


CHUNK_PHIS = {
    **{desc: ol.parse_orlicz(desc) for desc in MAX_PHIS},
    "power:3.5 without p": ol._without_p(ol.power(3.5)),
    "custom exp2": ol.custom_orlicz(lambda s: np.expm1(np.square(s)), "exp2 without dphi"),
}


class TestChunking:
    """Where rows of at most `_BLOCK` cells hold more than `_CHUNK` doubles,
    `luxemburg_norm_max` evaluates Phi(f/lam) in place in its Phi workspace
    and divides the slope row again; longer rows it reads in one pass per
    search point, a chunk of whole blocks at a time. The sizes below put
    rows on both sides of both thresholds, and the chunk size moves no bit:
    division, Phi and its derivative are elementwise, and every modular and
    slope is a row dot, one BLAS dot up to `_BLOCK` cells and the dots of its
    blocks added left to right above (`stepfn._row_dots`), whose bits do not
    depend on the BLAS thread count."""

    SIZES = (8, 1000, ol._CHUNK, 1 << 30)

    def _sizes(self, k: int) -> tuple:
        # chunks of 8 only on the smaller rows, to keep the pieces few
        return self.SIZES if k <= 3 * 1000 + 7 else self.SIZES[1:]

    def _under_each_size(self, monkeypatch, values, lengths, phi) -> set:
        results = set()
        for size in self._sizes(lengths.size):
            monkeypatch.setattr(ol, "_CHUNK", size)
            try:
                i, norm = ol.luxemburg_norm_max(values, lengths, phi)
                results.add((i, norm.hex()))
            except ol.OrliczError as error:
                results.add(str(error))
        return results

    @pytest.mark.parametrize("desc", list(CHUNK_PHIS))
    @pytest.mark.parametrize("n_rows", [1, 6])
    def test_chunk_size_moves_no_bit(self, desc, n_rows, monkeypatch):
        phi = CHUNK_PHIS[desc]
        rng = np.random.default_rng(n_rows)
        # distinct scales, so that rows are pruned, the largest row not
        # first, and a zero row
        scales = np.array([0.97, 0.3, 1.0, 0.0, 0.5, 0.99])[:n_rows, None]
        about_chunks = [k for chunk in self.SIZES[:3]
                        for k in (1, 3, chunk - 1, chunk, chunk + 1, 3 * chunk + 7)]
        for k in about_chunks + list(LONG_KS):
            values = scales * rng.standard_normal(k)
            lengths = rng.random(k) + 0.01
            lengths /= lengths.sum()
            results = self._under_each_size(monkeypatch, values, lengths, phi)
            assert len(results) == 1, (k, results)
            assert isinstance(next(iter(results)), tuple)

    @pytest.mark.parametrize("k", LONG_KS)
    def test_sums_are_block_dots(self, k):
        rng = np.random.default_rng(k)
        f = _random_step(k, rng)
        for desc in LONG_PHIS:
            phi = ol.parse_orlicz(desc)
            for lam in (0.5, 3.0):
                want = _block_dot(phi(f.values / lam), f.lengths)
                assert ol.modular(f, phi, lam) == want, (desc, lam)
        values = np.ldexp(rng.standard_normal((3, k)), [[0], [-20], [30]])
        for p in (1.0, 2.0, 3.5):
            m = sf._binade(np.abs(values).max(axis=1))
            unit = (np.abs(values) / m[:, None]) ** p
            if k <= sf._BLOCK:  # a table of short rows keeps its one gemv
                sums = unit @ f.lengths
            else:
                sums = np.array([_block_dot(row, f.lengths) for row in unit])
            want = m * sums ** (1.0 / p)
            assert bits(sf.lp_norm_rows(values, f.lengths, p)) == bits(want), p

    @pytest.mark.parametrize("desc", MAX_PHIS)
    def test_overflow_raises_under_each_size(self, desc, monkeypatch):
        # a cell shorter than 1/DBL_MAX, as in TestTinyNorms, in rows longer
        # than each chunk
        phi = ol.parse_orlicz(desc)
        for chunk in self.SIZES[:3]:
            k = 3 * chunk + 7
            lengths = np.full(k, (1.0 - 1e-310) / (k - 1))
            lengths[0] = 1e-310
            values = np.zeros((2, k))
            values[:, 0] = [1.0, 0.5]
            results = self._under_each_size(monkeypatch, values, lengths, phi)
            assert len(results) == 1, (chunk, results)
            assert "overflows" in next(iter(results))


class TestTinyNorms:
    """Norms far below ||f||_inf, down to the least positive double."""

    CLOSED = {"power:3": lambda t: t ** (1.0 / 3.0), "hinge:1": lambda t: t / (1.0 + t)}

    @pytest.mark.parametrize("desc", sorted(CLOSED))
    def test_scalar_and_rows_match_closed_form(self, desc):
        phi = ol.parse_orlicz(desc)
        for t in (1e-300, 1e-200, 1e-100, 1e-61, 1e-20, 0.3):
            want = self.CLOSED[desc](t)
            f = sf.indicator(t)
            scalar = ol.luxemburg_norm(f, phi)
            i, rows = ol.luxemburg_norm_max(np.array([[1.0, 0.0]]), f.lengths, phi)
            assert scalar == pytest.approx(want, rel=1e-12, abs=0.0)
            assert i == 0 and rows == pytest.approx(want, rel=1e-12, abs=0.0)
            assert ol.modular(f, phi, scalar) <= 1.0

    @pytest.mark.parametrize("desc", ["power:3", "hinge:2"])
    def test_least_subnormal_constant(self, desc):
        phi = ol.parse_orlicz(desc)
        tiny = 5e-324
        assert ol.luxemburg_norm(sf.constant(tiny), phi) == tiny
        assert ol.luxemburg_norm_max(np.array([[tiny]]), np.array([1.0]), phi) == (0, tiny)

    def test_degenerate_phi_still_rejected(self):
        # a bounded Phi would keep its modular below 1 on tiny sets: it is
        # rejected when it is built, as is Phi = 0
        for fn in (lambda s: np.expm1(np.minimum(s * s, 700.0)),
                   lambda s: np.minimum(s * s, 1e300), np.zeros_like):
            with pytest.raises(ol.OrliczError, match="bounded"):
                ol.custom_orlicz(fn, "bounded")

    @pytest.mark.parametrize("desc", ["power:1", "power:2", "hinge:1"])
    @pytest.mark.parametrize("c", [1e-280, 1e-250])
    def test_modular_at_most_one_at_the_least_double(self, desc, c):
        # c on one least-double cell: the norm is below 5e-324, whatever c is
        phi = ol.parse_orlicz(desc)
        f = sf.StepFunction(np.array([0.0, 5e-324, 1.0]), np.array([c, 0.0]))
        assert ol.luxemburg_norm(f, phi) == 5e-324
        assert ol.luxemburg_norm_max(f.values[None, :], f.lengths, phi) == (0, 5e-324)

    @pytest.mark.parametrize("desc", ["power:3", "hinge:1"])
    def test_far_norms_take_few_evaluations(self, desc):
        # norms 2^-220 to 2^-1000 times ||f||_inf: the gallop takes about 24
        # evaluations, where halving would take one per binade
        base = ol.parse_orlicz(desc)
        phi, calls = _counting(base, base.dphi)  # a power without its p: root found
        for t in (1e-300, 1e-200):
            calls[0] = 0
            norm = ol.luxemburg_norm(sf.indicator(t), phi)
            assert norm == pytest.approx(self.CLOSED[desc](t), rel=1e-12, abs=0.0)
            assert calls[0] <= 30

    @pytest.mark.parametrize("desc", ["exp2", "power:1", "power:2", "power:3", "hinge:1"])
    def test_overflow_up_to_the_norm_raises(self, desc):
        # on intervals shorter than 1/DBL_MAX, Phi(1/lam) is inf below the
        # overflow threshold, which the root find used to return as the norm
        phi = ol.parse_orlicz(desc)
        for t in (1e-310, 1e-320, 5e-324):
            f = sf.indicator(t)
            with pytest.raises(ol.OrliczError, match="overflows"):
                ol.luxemburg_norm(f, phi)
            with pytest.raises(ol.OrliczError, match="overflows"):
                ol.luxemburg_norm_max(np.array([[1.0, 0.0], [0.5, 0.0]]), f.lengths, phi)
        want = {"exp2": 1.0 / math.sqrt(math.log1p(1e308)), "power:1": 1e-308,
                "power:2": 1e-154, "power:3": 1e-308 ** (1.0 / 3.0), "hinge:1": 1e-308}[desc]
        got = ol.luxemburg_norm(sf.indicator(1e-308), phi)
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_no_tangent_at_either_end(self):
        # the bracket is [2^-1023, 2^-1022]: 2/lam overflows at its lower end,
        # and the modular is 0, with a flat tangent, at its upper end; the
        # bisection points then start Newton, which lands on the kink of M at
        # the norm (bisection alone takes 40 evaluations after the gallop's 21)
        base = ol.parse_orlicz("hinge:1e308")
        phi, calls = _counting(base, base.dphi)
        f = sf.step_function([0.0, 0.5, 1.0], [1.0, -2.0])
        norm = ol.luxemburg_norm(f, phi)
        assert norm == pytest.approx(2.000000000000804e-308, rel=1e-12, abs=0.0)
        assert ol.modular(f, base, norm) <= 1.0
        assert calls[0] <= 30

    def test_no_tangent_between_adjacent_subnormals(self):
        # the norm, 9.1e-324, lies between the two least doubles, where the
        # modular reads inf and 0: neither has a tangent root, and no double
        # lies between them to bisect at (this search once never ended)
        f, phi = sf.constant(-9.118988472175147e-16), ol.hinge(1e308)
        assert ol.luxemburg_norm(f, phi) == 1e-323
        rows = ol.luxemburg_norm_rows(np.array([f.values, [1.0]]), np.ones((2, 1)), phi)
        assert rows.tolist() == [1e-323, ol.luxemburg_norm(sf.constant(1.0), phi)]
        with np.errstate(over="ignore"):
            assert ol.modular(f, phi, 5e-324) > 1.0 >= ol.modular(f, phi, 1e-323)


def _counting(phi, dphi):
    """(Phi, calls): `phi` with a count of its evaluations in calls[0] and of
    the elements they took in calls[1], and `dphi` as its derivative (None:
    a custom Phi). It passes `out` on to phi, so a catalog body still
    evaluates in place, as in the solver, and keeps phi's `log_convex`."""
    calls = [0, 0]

    def fn(s, out=None):
        calls[0] += 1
        calls[1] += np.size(s)
        return phi(s, out)

    counted = ol.OrliczFunction(fn, phi.descriptor, dphi)
    # as the catalog constructors record them
    object.__setattr__(counted, "takes_out", True)
    object.__setattr__(counted, "log_convex", phi.log_convex)
    calls[:] = [0, 0]  # not the validation's evaluations
    return counted, calls


def _bisection_norm(f, phi):
    """The Luxemburg norm by a galloping search for the integer j with the
    norm between ||f||_inf 2^j and ||f||_inf 2^(j+1) (j = +-1, +-2, +-4, ...,
    then bisection on j), and bisection to BISECT_RTOL, without Newton (for
    norms that are normal doubles)."""
    mod = functools.partial(ol.modular, f, phi)
    lam = sf.lp_norm(f, math.inf)
    up = mod(lam) > 1.0
    near, far = 0, 1 if up else -1
    while (mod(math.ldexp(lam, far)) > 1.0) == up:
        near, far = far, 2 * far
    while abs(far - near) > 1:
        mid = (near + far) // 2
        if (mod(math.ldexp(lam, mid)) > 1.0) == up:
            near = mid
        else:
            far = mid
    lo, hi = sorted((math.ldexp(lam, near), math.ldexp(lam, far)))
    while hi - lo > ol.BISECT_RTOL * hi:
        mid = 0.5 * (lo + hi)
        if mod(mid) <= 1.0:
            hi = mid
        else:
            lo = mid
    return hi


@functools.lru_cache(maxsize=1)
def _newton_inputs():
    """A fixed set of 300 random step functions and 28 Rademacher-sum
    rearrangements (equal and random unit coefficients, n = 1..14)."""
    rng = np.random.default_rng(20261018)
    fs = [ex.random_step_function(rng) for _ in range(300)]
    for n in range(1, 15):
        a = rng.normal(size=n)
        fs += [sum_rearrangement([1.0] * n), sum_rearrangement(a / np.linalg.norm(a))]
    return tuple(fs)


@functools.lru_cache(maxsize=None)
def _bisection_results(desc):
    """(norms, Phi evaluations per norm) of `_bisection_norm` on the fixed set."""
    phi, calls = _counting(ol.parse_orlicz(desc), None)
    norms, counts = [], []
    for f in _newton_inputs():
        calls[0] = 0
        norms.append(_bisection_norm(f, phi))
        counts.append(calls[0])
    return tuple(norms), tuple(counts)


def _scaled(desc, c):
    dphi = ol.parse_orlicz(desc).dphi
    return lambda s, y: dphi(s, y) * c


class TestNewtonSolver:
    """Newton in mu = 1/lam against plain bisection, counted in evaluations of
    Phi, which do not depend on the host."""

    @pytest.mark.parametrize("desc", MAX_PHIS)
    def test_custom_phi_is_plain_bisection(self, desc):
        phi, calls = _counting(ol.parse_orlicz(desc), None)
        want_norms, want_counts = _bisection_results(desc)
        for f, want, count in zip(_newton_inputs(), want_norms, want_counts):
            calls[0] = 0
            assert ol.luxemburg_norm(f, phi) == want
            assert calls[0] == count

    @pytest.mark.parametrize("scale", [None, 3.0, 0.2])
    @pytest.mark.parametrize("desc", MAX_PHIS)
    def test_contract_and_evaluations(self, desc, scale):
        # scale: the catalog dphi, or one that is deliberately wrong by a factor
        base = ol.parse_orlicz(desc)
        phi, calls = _counting(base, base.dphi if scale is None else _scaled(desc, scale))
        want_norms, want_counts = _bisection_results(desc)
        counts = []
        for f, want, count in zip(_newton_inputs(), want_norms, want_counts):
            calls[0] = 0
            norm = ol.luxemburg_norm(f, phi)
            counts.append(calls[0])
            assert abs(norm - want) <= 1e-12 * want
            assert ol.modular(f, base, norm) <= 1.0
            # Newton never costs more than 5 evaluations over bisection
            assert calls[0] <= count + 5
        if scale is None:
            assert np.mean(counts) < np.mean(want_counts) / 2
            if desc == "exp2":
                assert np.mean(counts) <= 15.0

    @pytest.mark.parametrize("scale", [3.0, 0.2])
    @pytest.mark.parametrize("desc", MAX_PHIS)
    def test_wrong_dphi_in_norm_max(self, desc, scale):
        base = ol.parse_orlicz(desc)
        wrong = ol.OrliczFunction(base.fn, desc, _scaled(desc, scale))
        bisect = ol.OrliczFunction(base.fn, desc)
        rng = np.random.default_rng(99)
        for _ in range(20):
            xs = [ex.random_step_function(rng, max_plateaus=4) for _ in range(4)]
            breaks, dl, X = ex._refinement_matrix(xs)
            S = signed_sums(X)
            i, norm = ol.luxemburg_norm_max(S, dl, wrong)
            _, want = ol.luxemburg_norm_max(S, dl, bisect)
            assert abs(norm - want) <= 1e-12 * want
            assert (base(S / norm) @ dl).max() <= 1.0
            assert _close(_bisection_norm(sf.StepFunction(breaks, S[i]), base), want)


def _counting_searches(monkeypatch) -> list:
    """Wrap `orlicz._find_root` (by a `pytest.MonkeyPatch`) so that every
    search, in either driver, appends to the returned list the number of
    modular evaluations it took."""
    counts = []
    find_root = ol._find_root

    def counted(*args):
        search, n = find_root(*args), 0
        try:
            request = next(search)
            while True:
                answer = yield request
                n += 1
                request = search.send(answer)
        except StopIteration as stop:
            return stop.value
        finally:
            counts.append(n)

    monkeypatch.setattr(ol, "_find_root", counted)
    return counts


@st.composite
def suite_functions(draw):
    """A function drawn as the suites whose norms take the root find draw
    theirs: a spiky `random_step_function`, an indicator, or the
    rearrangement of a Rademacher sum with n <= 14 equal or random unit
    coefficients."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["step", "indicator", "equal", "random"]))
    if kind == "step":
        return ex.random_step_function(rng)
    if kind == "indicator":
        return ex.random_indicator_function(rng)
    n = draw(st.integers(1, 14))
    return sum_rearrangement([1.0] * n if kind == "equal" else ex._random_unit_vector(rng, n))


# log-convex Phi whose norms take the root find (a power Phi without its p)
LOG_CONVEX = {"exp2": ol.exp_square(), **{f"power:{p:g}": ol._without_p(ol.power(p))
                                         for p in (1.0, 2.0, 3.5)}}
# the searches that crawled before Newton stepped on log M: 46 and 46-47
# evaluations, where the others took 5-13
CRAWLS = (sum_rearrangement([1.0] * 20),
          sf.step_function([0.0, 0.9665911778573795, 0.96696138189548, 1.0], [0.0, 1.0, 0.0]))


class TestLogTangent:
    """Newton's points for a log-convex Phi: the larger of the tangent roots
    of M in mu and of log M in log mu."""

    def test_only_exp2_and_power_are_marked(self):
        assert ol.exp_square().log_convex and ol.power(2.0).log_convex
        assert ol._without_p(ol.power(3.5)).log_convex
        assert not ol.hinge(1.0).log_convex  # s Phi'/Phi = s / (s - a) falls
        assert not ol.custom_orlicz(lambda s: s * s, "square").log_convex

    @pytest.mark.parametrize("desc", sorted(LOG_CONVEX))
    @given(f=step_functions(), c=st.floats(-12.0, 12.0))
    # a norm of the least double, where norm 2^c rounds to lam = 0
    @example(f=sf.constant(5e-324), c=-1.0)
    @settings(max_examples=60, deadline=None)
    def test_log_root_is_at_most_the_norm(self, desc, f, c):
        phi = LOG_CONVEX[desc]
        norm = ol.luxemburg_norm(f, phi)
        lam = norm * 2.0 ** c
        assume(lam > 0.0)  # the tangent is taken at a positive double
        with np.errstate(over="ignore", invalid="ignore"):
            s = f.values / lam
            m = float(phi(s) @ f.lengths)
            d = float(ol._slope(phi, s, phi(s), f.lengths, np.dot))
        root = ol._tangent_root(lam, m, d, True)
        plain = ol._tangent_root(lam, m, d, False)
        assert math.isnan(root) or root <= norm * (1.0 + 1e-12)
        assert math.isnan(plain) or root >= plain

    @pytest.mark.parametrize("desc", sorted(LOG_CONVEX))
    @given(fs=st.lists(suite_functions(), min_size=1, max_size=5))
    @example(fs=list(CRAWLS))
    @settings(max_examples=30, deadline=None)
    def test_norms_against_bisection(self, desc, fs):
        # both drivers: each norm within 1e-12 of plain bisection, the
        # modular <= 1 there, and no search takes 30 evaluations
        phi = LOG_CONVEX[desc]
        rows = sf.StepRows.stack(fs)
        with pytest.MonkeyPatch.context() as mp:
            counts = _counting_searches(mp)
            norms = [ol.luxemburg_norm(f, phi) for f in fs]
            assert ol.luxemburg_norm_rows(rows.values, rows.lengths, phi).tolist() == norms
        assert max(counts) < 30
        for f, norm in zip(fs, norms):
            assert _close(norm, _bisection_norm(f, phi), 1e-12)
            assert ol.modular(f, phi, norm) <= 1.0

    @pytest.mark.parametrize("desc", LONG_PHIS)
    def test_long_rows_against_bisection(self, desc):
        # rows about `_BLOCK` cells, in both drivers: each norm within 1e-12
        # of plain bisection and the modular <= 1 there
        phi = ol.parse_orlicz(desc)
        rng = np.random.default_rng(7)
        fs = [_random_step(k, rng) for k in LONG_KS]
        norms = [ol.luxemburg_norm(f, phi) for f in fs]
        rows = sf.StepRows.stack(fs)
        assert bits(ol.luxemburg_norm_rows(rows.values, rows.lengths, phi)) == bits(norms)
        for f, norm in zip(fs, norms):
            assert _close(norm, _bisection_norm(f, phi), 1e-12), f.k
            assert ol.modular(f, phi, norm) <= 1.0

    def test_no_default_search_takes_30_evaluations(self, monkeypatch):
        counts = _counting_searches(monkeypatch)
        most = {}
        for name in ex.SUITES:
            counts.clear()
            ex.run_suite(name)
            most[name] = max(counts, default=0)
        assert max(most.values()) < 30, most


class TestExactOracles:
    """Norms within 1e-12 of exact values, for parameters that the descriptor
    (6 digits) does not round-trip: the solver must use Phi's own parameter."""

    @staticmethod
    def _both(f, phi):
        scalar = ol.luxemburg_norm(f, phi)
        i, row = ol.luxemburg_norm_max(np.array([f.values]), f.lengths, phi)
        assert i == 0
        return scalar, row

    def test_hinge_of_reciprocal(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            t = float(rng.uniform(0.01, 1.0))
            f = ex.random_step_function(rng)
            phi = ol.hinge(1.0 / t)
            want = hinge_norm_exact(f, 1.0 / t)
            for got in self._both(f, phi):
                assert abs(Fraction(got) - want) <= Fraction(1e-12) * want

    # a modular rebuilt from the descriptor errs in both directions here:
    # 'power:1.33333' has a smaller p, 'power:1.66667' a larger one
    @pytest.mark.parametrize("p", [4.0 / 3.0, 5.0 / 3.0, 3.5])
    def test_power(self, p):
        rng = np.random.default_rng(32)
        phi = ol.power(p)
        for _ in range(100):
            f = ex.random_step_function(rng)
            want = math.fsum(np.abs(f.values) ** p * f.lengths) ** (1.0 / p)
            for got in self._both(f, phi):
                assert got == pytest.approx(want, rel=1e-12)


POWER_PS = (1.0, 2.0, 3.5, 4.0 / 3.0)


class TestPowerClosedForm:
    """power(p) records p, and its Luxemburg norm is the Lp norm, checked on
    the modular instead of searched for."""

    def test_no_new_parameter(self):
        assert list(inspect.signature(ol.OrliczFunction).parameters) == [
            "fn", "descriptor", "dphi"
        ]
        assert ol.power(2.5).p == 2.5
        assert ol.exp_square().p is None and ol.hinge(1.0).p is None
        phi = ol.power(2.0)
        plain = ol._without_p(phi)  # the root finder runs: only p is cleared
        assert plain.p is None and phi.p == 2.0
        assert (plain.fn, plain.descriptor, plain.dphi) == (phi.fn, phi.descriptor, phi.dphi)
        assert plain.takes_out

    def test_power_2000_is_lp_2000(self):
        rng = np.random.default_rng(1)
        rows = sf.StepRows.stack([ex.random_step_function(rng) for _ in range(300)])
        got = sp.ri_norm_rows(rows, sp.parse_space("orlicz:power:2000"))
        lp = sp.ri_norm_rows(rows, sp.parse_space("Lp:2000"))
        # the Lp norm, or 4e-13 above it where rounding reads the modular above 1
        assert np.all((got == lp) | (got == lp * (1.0 + ol._PROBE)))
        phi = ol.power(2000.0)
        assert all(ol.modular(rows.row(i), phi, got[i]) <= 1.0 for i in range(len(rows)))

    @pytest.mark.parametrize("p", POWER_PS)
    @given(
        xs=st.lists(step_functions(max_pieces=4), min_size=1, max_size=6),
        scale=st.sampled_from([1.0, 1e150, 1e-150]),
    )
    @example(xs=[sf.constant(5e-324)], scale=1.0)
    @settings(max_examples=40, deadline=None)
    def test_signed_sum_rows(self, p, xs, scale):
        phi = ol.power(p)
        _, dl, X = ex._refinement_matrix(xs)
        S = signed_sums(X) * scale
        i, norm = ol.luxemburg_norm_max(S, dl, phi)
        assert i == int(np.argmax(sf.lp_norm_rows(S, dl, p)))
        if norm == 0.0:
            assert not S.any()
            return
        _, generic = ol.luxemburg_norm_max(S, dl, ol._without_p(phi))
        assert abs(norm - generic) <= 1e-12 * generic
        assert (phi(S / norm) @ dl).max() <= 1.0
        below = norm * (1.0 - 1e-9)
        if below < norm:  # no double lies 1e-9 below a subnormal norm such as 5e-324
            assert (phi(S / below) @ dl).max() > 1.0

    @pytest.mark.parametrize("p", POWER_PS)
    def test_at_most_two_phi_evaluations(self, p):
        base = ol.power(p)
        phi, calls = _counting(base, base.dphi)
        object.__setattr__(phi, "p", base.p)  # as power() records it
        for f in _newton_inputs():
            calls[0] = 0
            norm = ol.luxemburg_norm(f, phi)
            assert calls[0] <= 2
            assert norm == ol.luxemburg_norm(f, base)
