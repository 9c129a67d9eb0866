import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import step_functions
from rispaces import experiments as ex
from rispaces import orlicz as ol
from rispaces import spaces as sp
from rispaces import stepfn as sf


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

    def test_validation_rejects_concave(self):
        with pytest.raises(ol.OrliczError, match="convexity"):
            ol.custom_orlicz(lambda s: np.sqrt(np.abs(s)), "sqrt")

    def test_validation_rejects_odd(self):
        with pytest.raises(ol.OrliczError, match="even"):
            ol.custom_orlicz(lambda s: np.asarray(s, float), "identity")

    def test_validation_rejects_nonzero_at_origin(self):
        with pytest.raises(ol.OrliczError, match="expected 0"):
            ol.custom_orlicz(lambda s: s * s + 1.0, "shifted")

    def test_exp2_values(self):
        phi = ol.exp_square()
        assert phi(0.0) == 0.0
        assert float(phi(1.0)) == pytest.approx(math.e - 1.0, rel=1e-15)


class TestModular:
    def test_constant_power(self):
        # constant 2, Phi(s)=s^2, lam=2
        assert ol.modular(sf.constant(2.0), ol.power(2.0), 2.0) == 1.0

    def test_large_lam_limit(self):
        f = sf.step_function([0, 0.2, 1], [5.0, -1.0])
        m = ol.modular(f, ol.exp_square(), 1e6 * sf.linf_norm(f))
        assert 0.0 <= m < 1e-10

    def test_exp2_indicator(self):
        m = ol.modular(sf.indicator(0.25), ol.exp_square(), 1.0)
        assert m == pytest.approx(0.25 * (math.e - 1.0), rel=1e-15)

    def test_rejects_nonpositive_lam(self):
        with pytest.raises(ol.OrliczError):
            ol.modular(sf.constant(1.0), ol.power(2.0), 0.0)

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
        h = sf.linear_combination([f, g], [1.0, 1.0])
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


class TestLuxemburgRows:
    def test_matches_scalar_path(self, rng):
        phi = ol.exp_square()
        lengths = np.diff(np.concatenate(([0.0], np.sort(rng.uniform(0, 1, 5)), [1.0])))
        V = rng.uniform(-4.0, 4.0, size=(8, 6))
        got = ol.luxemburg_norm_rows(V, lengths, phi)
        breaks = np.concatenate(([0.0], np.cumsum(lengths)))
        breaks[-1] = 1.0
        for row, g in zip(V, got):
            want = ol.luxemburg_norm(sf.StepFunction(breaks, row), phi)
            assert g == pytest.approx(want, rel=1e-11, abs=1e-14)

    def test_zero_rows(self):
        got = ol.luxemburg_norm_rows(
            np.array([[0.0, 0.0], [1.0, 1.0]]), np.array([0.5, 0.5]), ol.power(2.0)
        )
        assert got[0] == 0.0
        assert got[1] == pytest.approx(1.0, rel=1e-11)


MAX_PHIS = ("exp2", "power:1", "power:2", "power:3.5", "hinge:1")


def _close(got, want, rtol=2e-12):
    return abs(got - want) <= rtol * want


class TestLuxemburgNormMax:
    """The largest Luxemburg norm among many rows, by one pruned root find."""

    @pytest.mark.parametrize("desc", MAX_PHIS)
    @given(xs=st.lists(step_functions(max_pieces=4), min_size=1, max_size=8))
    @settings(max_examples=30, deadline=None)
    def test_matches_largest_scalar_norm(self, desc, xs):
        phi = ol.parse_orlicz(desc)
        breaks, dl, X = ex._refinement_matrix(xs)
        S = ex._all_signs(len(xs)) @ X
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
        # t^(1/3) and t/(1+t) at t = 1e-300: below 2^-200 times the sup, so
        # the bracket comes from the bisection on the binary exponent
        phi = ol.parse_orlicz(desc)
        f = sf.indicator(1e-300)
        i, norm = ol.luxemburg_norm_max(np.array([[0.5, 0.0], [1.0, 0.0]]), f.lengths, phi)
        assert i == 1
        assert norm < 2.0 ** -200
        assert _close(norm, ol.luxemburg_norm(f, phi))
        assert norm == pytest.approx(TestTinyNorms.CLOSED[desc](1e-300), rel=1e-12)
        assert ol.modular(f, phi, norm) <= 1.0


class TestTinyNorms:
    """Norms far below ||f||_inf, where the lower bracket leaves the halving range."""

    CLOSED = {"power:3": lambda t: t ** (1.0 / 3.0), "hinge:1": lambda t: t / (1.0 + t)}

    @pytest.mark.parametrize("desc", sorted(CLOSED))
    def test_scalar_and_rows_match_closed_form(self, desc):
        phi = ol.parse_orlicz(desc)
        for t in (1e-300, 1e-200, 1e-100, 1e-61, 1e-20, 0.3):
            want = self.CLOSED[desc](t)
            f = sf.indicator(t)
            scalar = ol.luxemburg_norm(f, phi)
            rows = ol.luxemburg_norm_rows(np.array([[1.0, 0.0]]), f.lengths, phi)[0]
            assert scalar == pytest.approx(want, rel=1e-12)
            assert rows == pytest.approx(want, rel=1e-12)
            assert ol.modular(f, phi, scalar) <= 1.0

    @pytest.mark.parametrize("desc", ["power:3", "hinge:2"])
    def test_least_subnormal_constant(self, desc):
        phi = ol.parse_orlicz(desc)
        tiny = 5e-324
        assert ol.luxemburg_norm(sf.constant(tiny), phi) == tiny
        assert ol.luxemburg_norm_rows(np.array([[tiny]]), np.array([1.0]), phi)[0] == tiny

    def test_degenerate_phi_still_rejected(self):
        # exp2 is capped at exp(700), so its modular stays below 1 on tiny sets
        phi = ol.exp_square()
        f = sf.indicator(1e-305)
        with pytest.raises(ol.OrliczError, match="never exceeds 1"):
            ol.luxemburg_norm(f, phi)
        with pytest.raises(ol.OrliczError, match="never exceeds 1"):
            ol.luxemburg_norm_rows(np.array([[1.0, 0.0]]), f.lengths, phi)
