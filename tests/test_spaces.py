import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import batch_functions, hinge_norm_exact, moderate_functions, step_functions
from rispaces import experiments as ex
from rispaces import orlicz as ol
from rispaces import spaces as sp
from rispaces import stepfn as sf
from rispaces import weights as wt


class TestParseAndDispatch:
    def test_catalog_names(self):
        assert set(sp.catalog()) == {"G", "G1", "MG", "L1"}

    def test_parse_known(self):
        for d in ("G", "G1", "MG", "L1", "Lp:2", "Linf", "orlicz:power:2",
                  "lorentz:logG1", "marcinkiewicz:logG"):
            sp.parse_space(d)

    def test_parse_rejects_unknown(self):
        with pytest.raises(sp.SpaceError):
            sp.parse_space("Hardy")

    def test_lp_rejects_bad_p(self):
        with pytest.raises(sp.SpaceError):
            sp.lp_space(0.5)

    def test_norm_dispatch(self):
        f = sf.indicator(0.25)
        assert sp.ri_norm(f, sp.lp_space(1.0)) == 0.25
        assert sp.ri_norm(f, sp.linf_space()) == 1.0
        assert sp.ri_norm(f, sp.space_G()) == pytest.approx(
            1.0 / math.sqrt(math.log(5.0)), rel=1e-11
        )
        assert sp.ri_norm(f, sp.space_G1()) == pytest.approx(
            2.0 / math.sqrt(math.log(4.0 * math.e**2)), rel=1e-14
        )

    @pytest.mark.parametrize("desc", ["G", "G1", "MG", "L1", "Linf"])
    def test_norm_max_ties_go_to_the_first_row(self, desc):
        E = sp.parse_space(desc)
        breaks = np.array([0.0, 0.5, 1.0])
        S = np.array([[0.0, 0.0], [0.0, 2.0], [2.0, 0.0], [-2.0, 0.0]])
        i, norm = sp.ri_norm_max(breaks, S, E)
        assert i == 1
        assert norm == sp.ri_norm(sf.StepFunction(breaks, S[1]), E)

    def test_constant_in_lp(self):
        for p in (1.0, 2.0, 5.0):
            assert sp.ri_norm(sf.constant(-3.0), sp.lp_space(p)) == pytest.approx(
                3.0, rel=1e-14
            )

    def test_lp_beyond_p_1023(self):
        assert sp.ri_norm(sf.constant(1.5), sp.parse_space("Lp:2000")) == 1.5


class TestHomogeneity:
    """||c f|| = |c| ||f|| over the float64 range. Indicators of tiny sets are
    left out: their Orlicz modular still overflows."""

    @pytest.mark.parametrize(
        "desc",
        ["G", "G1", "MG", "L1", "Linf", "orlicz:power:3", "orlicz:hinge:1", "lorentz:power:0.5"],
    )
    @given(f=moderate_functions(), exponent=st.floats(-300.0, 300.0), negative=st.booleans())
    @settings(max_examples=50, deadline=None)
    def test_positively_homogeneous(self, desc, f, exponent, negative):
        E = sp.parse_space(desc)
        c = -(10.0**exponent) if negative else 10.0**exponent
        want = abs(c) * sp.ri_norm(f, E)
        assert sp.ri_norm(f.scale(c), E) == pytest.approx(want, rel=1e-12, abs=0.0)


# every space kind, with each Lp path: p = 1, p = inf, p = 2, other p and p > 1023
_COVARIANT = ["G", "G1", "MG", "L1", "Linf", "Lp:2", "Lp:3.5", f"Lp:{4 / 3}", "Lp:2000",
              "orlicz:power:1", "orlicz:power:2", "orlicz:power:3.5", "orlicz:hinge:1",
              "lorentz:power:0.5", "marcinkiewicz:power:0.5"]


def _stays_normal(x, k):
    """Where x and x * 2^k are both 0 or both normal doubles, for every entry
    of each row of x."""
    e = np.frexp(x)[1]  # x = m 2^e with 0.5 <= |m| < 1
    normal = (np.minimum(e, e + k) >= -1021) & (np.maximum(e, e + k) <= 1024)
    return ((x == 0.0) | normal).reshape(len(x), -1).all(1)


class TestScaleCovariance:
    """||2^k f|| = 2^k ||f|| bit for bit: scaling by 2^k is exact wherever no
    value and no norm leaves the normal range."""

    @staticmethod
    def _assert_covariant(E, rows, norms, k) -> int:
        """Compares the rows that stay in the normal range; returns their count."""
        keep = _stays_normal(rows.values, k) & _stays_normal(norms, k)
        keep &= (norms != 0.0) | ~rows.values.any(axis=1)  # else the norm underflowed to 0
        if keep.any():
            V = np.ldexp(rows.values[keep], k)
            got = sp.ri_norm_rows(sf.StepRows(rows.breakpoints[keep], V, rows.counts[keep]), E)
            bad = got != np.ldexp(norms[keep], k)
            assert not bad.any(), f"k={k}: {bad.sum()} rows, first {int(bad.argmax())}"
        return int(keep.sum())

    @pytest.mark.parametrize("desc", _COVARIANT)
    def test_random_functions(self, desc):
        E, rng = sp.parse_space(desc), np.random.default_rng(3)
        rows = sf.StepRows.stack([ex.random_step_function(rng) for _ in range(300)])
        norms = sp.ri_norm_rows(rows, E)
        for k in (-600, -300, -40, -1, 1, 7, 40, 300, 600):
            assert self._assert_covariant(E, rows, norms, k) == 300

    @pytest.mark.parametrize("desc", _COVARIANT)
    @given(fs=st.lists(batch_functions(), min_size=1, max_size=6), k=st.integers(-600, 600))
    # Lorentz terms v (w(t_i) - w(t_(i-1))) below the normal range, with a normal norm
    @example(fs=[sf.StepFunction(np.array([0.0, 1e-20, 1e-17, 1.0]),
                                 np.array([3.5e-299, 1.5e-299, 0.0]))], k=-1)
    # an L1 term v l below the normal range that breaks a rounding tie
    @example(fs=[sf.StepFunction(np.array([0.0, 1e-300, 0.33009248175679656,
                                           np.nextafter(0.33009248175679656, 1.0), 1.0]),
                                 np.array([1.0, 2.0, 2.0, 0.5]))], k=-79)
    # a norm below the least double, which 2^k brings back into range
    @example(fs=[sf.StepFunction(np.array([0.0, 1e-300, 1.0]), np.array([1e-300, 0.0]))], k=207)
    @settings(max_examples=25, deadline=None)
    def test_batches(self, desc, fs, k):
        E, rows = sp.parse_space(desc), sf.StepRows.stack(fs)
        self._assert_covariant(E, rows, sp.ri_norm_rows(rows, E), k)


class TestFundamentalFunction:
    def test_lp2(self):
        assert sp.fundamental_function(sp.lp_space(2.0), 0.25) == pytest.approx(
            0.5, rel=1e-12
        )

    def test_g_closed_form(self):
        got = sp.fundamental_function(sp.space_G(), 0.25)
        assert got == pytest.approx(1.0 / math.sqrt(math.log(5.0)), rel=1e-10)

    def test_lorentz_power_half(self):
        E = sp.lorentz_space(wt.power_weight(0.5))
        assert sp.fundamental_function(E, 0.09) == pytest.approx(0.3, rel=1e-12)

    def test_array_input(self):
        ts = np.geomspace(1e-4, 1.0, 7)
        got = sp.fundamental_function(sp.space_G1(), ts)
        want = 2.0 / np.sqrt(2.0 - np.log(ts))
        assert np.allclose(got, want, rtol=1e-12)

    def test_rejects_out_of_range(self):
        with pytest.raises(sp.SpaceError):
            sp.fundamental_function(sp.space_G(), 0.0)

    def test_quasiconcavity_on_catalog(self):
        ts = np.geomspace(1e-6, 1.0, 100)
        for E in sp.catalog().values():
            fund = np.atleast_1d(sp.fundamental_function(E, ts))
            assert np.all(np.diff(fund) >= -1e-9 * np.abs(fund[1:]))
            quotient = ts / fund
            assert np.all(np.diff(quotient) >= -1e-9 * np.abs(quotient[1:]))

    def test_closed_form_matches_generic(self):
        # generic path forced via an unnamed custom Orlicz space
        from rispaces import orlicz as ol

        E_generic = sp.orlicz_space(ol.custom_orlicz(lambda s: np.expm1(s * s), "exp2-clone"))
        for t in (1e-3, 0.1, 0.7):
            assert sp.fundamental_function(sp.space_G(), t) == pytest.approx(
                sp.fundamental_function(E_generic, t), rel=1e-9
            )

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.5, 4.0 / 3.0])
    def test_orlicz_power_is_the_lp_closed_form(self, p):
        # the Luxemburg solver's value, within 1e-12 of t^(1/p), with the
        # float modular at most 1 there
        E = sp.orlicz_space(ol.power(p))
        ts = np.geomspace(1e-6, 1.0, 50)
        got = sp.fundamental_function(E, ts)
        indicators = sf.StepRows.stack([sf.indicator(t) for t in ts])
        assert np.array_equal(got, sp.ri_norm_rows(indicators, E))
        assert np.allclose(got, ts ** (1.0 / p), rtol=1e-12, atol=0.0)
        for t, lam in zip(ts, got):
            assert ol.modular(sf.indicator(t), E.phi, lam) <= 1.0

    def test_affine_lorentz_weight_is_the_stieltjes_sum(self):
        # phi(0+) = 0.5: the indicator norm is w(t) - w(0), not w(t)
        E = sp.lorentz_space(wt.custom_weight(lambda t: 0.5 + 0.5 * t, "affine"))
        assert sp.fundamental_function(E, 0.5) == 0.25
        assert sp.fundamental_function(E, 0.5) == sp.ri_norm(sf.indicator(0.5), E)

    _FORMULA_GRID = np.concatenate(
        (np.geomspace(1e-300, 1.0, 3000), np.random.default_rng(7).uniform(0.0, 1.0, 3000), [1.0])
    )

    @pytest.mark.parametrize("desc", [
        "G1", "MG", "L1", "Lp:2", "Lp:3.5", f"Lp:{4.0 / 3.0!r}", "Linf",
        "lorentz:power:0.5", "marcinkiewicz:power:0.3", "lorentz:logPsi",
    ])
    def test_generic_path_is_the_formula(self, desc):
        # w(t), t / w(t) and t^(1/p), bit for bit, from the indicator batch
        E, ts = sp.parse_space(desc), self._FORMULA_GRID
        if E.kind == "lorentz":
            formula = E.weight(ts)
        elif E.kind == "marcinkiewicz":
            formula = ts / E.weight(ts)
        else:
            formula = ts ** (1.0 / E.p)
        got = sp.fundamental_function(E, ts)
        assert np.array_equal(got, formula)
        stacked = sf.StepRows.stack([sf.indicator(t) for t in ts])
        assert np.array_equal(got, sp.ri_norm_rows(stacked, E))

    def test_only_the_catalog_exp2_takes_the_closed_form(self):
        ts = np.geomspace(1e-6, 1.0, 20)
        rows = sf.StepRows.stack([sf.indicator(t) for t in ts])
        named = sp.orlicz_space(ol.custom_orlicz(lambda s: np.expm1(2.0 * s * s), "exp2"))
        got = sp.fundamental_function(named, ts)
        assert np.array_equal(got, sp.ri_norm_rows(rows, named))
        g = sp.fundamental_function(sp.space_G(), ts)
        assert np.allclose(got, math.sqrt(2.0) * g, rtol=1e-12, atol=0.0)
        parsed = sp.parse_space("orlicz:exp2")
        assert parsed.phi is sp.space_G().phi
        assert np.array_equal(sp.fundamental_function(parsed, ts), g)

    @pytest.mark.parametrize("name", sorted(sp.catalog()))
    @pytest.mark.parametrize("bad", [math.nan, 0.0, -0.5, 1.5, math.inf])
    def test_names_the_t_outside_the_range(self, name, bad):
        E = sp.catalog()[name]
        for t in (bad, [0.5, bad], np.array([[0.5], [bad]])):
            with pytest.raises(sp.SpaceError, match=f"t={bad}"):
                sp.fundamental_function(E, t)

    @pytest.mark.parametrize("desc", ["G", "G1", "MG", "L1", "Linf", "orlicz:hinge:2"])
    def test_output_has_the_shape_of_t(self, desc):
        E = sp.parse_space(desc)
        ts = np.geomspace(1e-3, 1.0, 6)
        flat = sp.fundamental_function(E, ts)
        assert flat.shape == (6,)
        grid = sp.fundamental_function(E, ts.reshape(2, 3))
        assert grid.shape == (2, 3) and np.array_equal(grid.ravel(), flat)
        assert np.array_equal(sp.fundamental_function(E, ts.tolist()), flat)
        for t, want in zip(ts, flat):
            got = sp.fundamental_function(E, np.float64(t))
            assert type(got) is float and got == want
            assert sp.fundamental_function(E, float(t)) == want


class TestEnvelopeWeight:
    def test_lp2_envelope_is_sqrt(self):
        w = sp.envelope_weight(sp.lp_space(2.0))
        ts = np.geomspace(1e-6, 1.0, 20)
        assert np.allclose(w(ts), np.sqrt(ts), rtol=1e-12)

    def test_lorentz_power_envelope(self):
        alpha = 0.3
        w = sp.envelope_weight(sp.lorentz_space(wt.power_weight(alpha)))
        ts = np.geomspace(1e-6, 1.0, 20)
        assert np.allclose(w(ts), ts ** (1.0 - alpha), rtol=1e-12)

    def test_g_envelope_closed_form(self):
        w = sp.envelope_weight(sp.space_G())
        ts = np.geomspace(1e-6, 1.0, 20)
        assert np.allclose(w(ts), ts * np.sqrt(np.log1p(1.0 / ts)), rtol=1e-9)

    @given(step_functions())
    @settings(max_examples=40, deadline=None)
    def test_domination_for_l1(self, f):
        E = sp.lp_space(1.0)
        env = sp.envelope_weight(E)
        assert sp.ri_norm(f, E) >= wt.marcinkiewicz_norm(f, env) - 1e-8

    def test_equality_on_indicators(self):
        E = sp.space_G()
        env = sp.envelope_weight(E)
        for t in (0.05, 0.33, 1.0):
            f = sf.indicator(t)
            lhs = sp.ri_norm(f, E)
            rhs = wt.marcinkiewicz_norm(f, env)
            assert rhs == pytest.approx(lhs, rel=1e-8)


class TestHingeFamily:
    def test_constant_one_half(self):
        hb = sp.hinge_family_bound(sf.constant(1.0), 0.5)
        assert hb.upper == pytest.approx(0.5, abs=1e-15)
        assert hb.lower == pytest.approx(0.25, abs=1e-15)
        assert hb.norm == pytest.approx(1.0 / 3.0, rel=1e-11)
        assert hb.ok

    def test_zero_function(self):
        hb = sp.hinge_family_bound(sf.constant(0.0), 0.3)
        assert hb == sp.HingeBound(0.0, 0.0, 0.0)
        assert hb.ok

    def test_slack_is_relative_to_a(self):
        # an absolute slack would let any norm pass at this scale
        assert not sp.HingeBound(4e-301, 8e-301, 0.0).ok

    def test_rejects_bad_t(self):
        with pytest.raises(sp.SpaceError):
            sp.hinge_family_bound(sf.constant(1.0), 0.0)

    @pytest.mark.parametrize("ts", [[0.5, 0.5], [0.5] * 4, [0.5]])
    def test_needs_one_t_per_row(self, ts):
        rows = sf.StepRows.stack([sf.constant(1.0), sf.indicator(0.5), sf.constant(-2.0)])
        with pytest.raises(sp.SpaceError, match="one t per row"):
            sp.hinge_family_bounds(rows, ts)

    def test_norms_are_exact(self):
        # random functions, some scaled by 10^300 or 10^-300, cells of 1e-300
        # carrying values up to 1e300, a zero function, and t = 1
        rng = np.random.default_rng(20)
        fs = [ex.random_step_function(rng).scale(10.0 ** (300 * (i % 3 - 1))) for i in range(240)]
        for v in rng.uniform(-3.0, 3.0, size=(60, 3)):
            fs.append(sf.step_function([0.0, 1e-300, 2e-300, 1.0], v * [1e300, 1e-200, 1.0]))
        fs += [sf.constant(0.0), sf.indicator(1e-300).scale(1e300)]
        ts = [float(t) for t in rng.uniform(0.01, 1.0, size=len(fs))]
        ts[::7] = [1.0] * len(ts[::7])
        bounds = sp.hinge_family_bounds(sf.StepRows.stack(fs), ts)
        assert len(bounds) == len(fs) == 302
        for f, t, hb in zip(fs, ts, bounds):
            want = 0 if f.is_zero() else hinge_norm_exact(f, 1 / Fraction(t))
            assert abs(Fraction(hb.norm) - want) <= Fraction(1e-15) * want
            assert hb.norm == pytest.approx(ol.luxemburg_norm(f, ol.hinge(1.0 / t)), rel=1e-12)
            assert hb.ok

    @given(step_functions(), )
    @example(sf.constant(5e-324))  # halving the lower bracket underflows to 0
    @settings(max_examples=100, deadline=None)
    def test_sandwich_holds(self, f):
        for t in (0.1, 0.3, 0.9):
            assert sp.hinge_family_bound(f, t).ok
