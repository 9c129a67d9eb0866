import functools
import inspect
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import hinge_norm_exact, linear_combination, signed_sums, step_functions
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
        m = ol.modular(f, ol.exp_square(), 1e6 * sf.lp_norm(f, math.inf))
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


def _counting(phi, dphi):
    """(Phi, calls): `phi` with a count of its evaluations in calls[0], and
    `dphi` as its derivative (None: a custom Phi)."""
    calls = [0]

    def fn(s):
        calls[0] += 1
        return phi.fn(s)

    counted = ol.OrliczFunction(fn, phi.descriptor, dphi)
    calls[0] = 0  # not the validation's evaluations
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


def _without_p(phi):
    """The same Phi without its exponent, for which the root finder runs."""
    return ol.OrliczFunction(phi.fn, phi.descriptor, phi.dphi)


class TestPowerClosedForm:
    """power(p) records p, and its Luxemburg norm is the Lp norm, checked on
    the modular instead of searched for."""

    def test_no_new_parameter(self):
        assert list(inspect.signature(ol.OrliczFunction).parameters) == [
            "fn", "descriptor", "dphi"
        ]
        assert ol.power(2.5).p == 2.5
        assert ol.exp_square().p is None and ol.hinge(1.0).p is None
        assert _without_p(ol.power(2.0)).p is None

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
        _, generic = ol.luxemburg_norm_max(S, dl, _without_p(phi))
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
