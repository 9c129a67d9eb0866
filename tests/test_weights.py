import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    batch_functions,
    bits,
    reference_lorentz_norm,
    reference_marcinkiewicz_sup,
    reference_rearrange,
    step_functions,
)
from rispaces import spaces as sp
from rispaces import stepfn as sf
from rispaces import weights as wt


class TestValidation:
    def test_power_half_valid(self):
        d = wt.validate_weight(wt.power_weight(0.5))
        assert d.valid
        assert d.phi_at_one == pytest.approx(1.0, abs=1e-15)

    def test_log_g1_valid_with_normalization_warning(self):
        d = wt.validate_weight(wt.log_g1())
        assert d.valid
        assert any("phi(1)" in w for w in d.warnings)
        assert d.phi_at_one == pytest.approx(math.sqrt(2.0), rel=1e-15)

    def test_square_rejected(self):
        with pytest.raises(wt.WeightError, match="concave"):
            wt.custom_weight(lambda t: np.asarray(t, float) ** 2, "square")

    def test_printed_g_weight_flagged_not_concave(self):
        d = wt.validate_weight(wt.log_g_printed())
        assert not d.valid
        assert any("concave" in e for e in d.errors)

    def test_log_g_valid(self):
        assert wt.validate_weight(wt.log_g()).valid

    def test_log_psi_valid(self):
        assert wt.validate_weight(wt.log_psi()).valid

    def test_power_weight_rejects_bad_alpha(self):
        for alpha in (0.0, 1.5, -1.0):
            with pytest.raises(wt.WeightError):
                wt.power_weight(alpha)


class TestParse:
    def test_named_weights(self):
        for d in ("logG", "logG1", "logPsi", "power:0.5"):
            assert wt.parse_weight(d).descriptor in (d, "power:0.5")

    def test_envelope_descriptor(self):
        w = wt.parse_weight("envelope:Lp:2")
        assert float(w(np.array([0.25]))[0]) == pytest.approx(0.5, rel=1e-12)

    def test_unknown_rejected(self):
        with pytest.raises(wt.WeightError):
            wt.parse_weight("spline")


class TestLorentzNorm:
    def test_indicator_gives_weight_value(self):
        w = wt.log_g1()
        t = math.exp(-2.0)
        assert wt.lorentz_norm(sf.indicator(t), w) == pytest.approx(1.0, rel=1e-15)

    def test_constant_gives_phi_at_one(self):
        assert wt.lorentz_norm(sf.constant(1.0), wt.log_g1()) == pytest.approx(
            math.sqrt(2.0), rel=1e-15
        )

    def test_zero_function(self):
        assert wt.lorentz_norm(sf.constant(0.0), wt.power_weight(0.5)) == 0.0

    @given(step_functions())
    @settings(max_examples=60, deadline=None)
    def test_rearrangement_invariance(self, f):
        w = wt.power_weight(0.5)
        assert wt.lorentz_norm(f, w) == pytest.approx(
            wt.lorentz_norm(sf.rearrange(f), w), rel=1e-12, abs=1e-12
        )

    @given(step_functions())
    @settings(max_examples=60, deadline=None)
    def test_homogeneity(self, f):
        w = wt.log_g1()
        assert wt.lorentz_norm(f.scale(-2.5), w) == pytest.approx(
            2.5 * wt.lorentz_norm(f, w), rel=1e-12, abs=1e-12
        )


class TestMarcinkiewiczNorm:
    def test_constant_one_with_normalized_weight(self):
        norm, argmax = wt.marcinkiewicz_sup(sf.constant(1.0), wt.power_weight(0.5))
        assert norm == pytest.approx(1.0, rel=1e-9)
        assert argmax == pytest.approx(1.0, abs=1e-6)

    def test_indicator_sqrt_weight(self):
        for t0 in (0.1, 0.37, 0.9):
            norm, argmax = wt.marcinkiewicz_sup(sf.indicator(t0), wt.power_weight(0.5))
            assert norm == pytest.approx(math.sqrt(t0), rel=1e-9)
            assert argmax == pytest.approx(t0, abs=1e-6)

    def test_three_piece_vs_grid_oracle(self):
        f = sf.step_function([0, 0.3, 0.8, 1], [4.0, 2.0, 1.0])
        w = wt.power_weight(0.5)
        norm = wt.marcinkiewicz_norm(f, w)
        s = np.concatenate([np.geomspace(1e-8, 1.0, 1_000_000), f.breakpoints[1:]])
        F = np.array([sf.partial_integral(f, float(t)) for t in f.breakpoints])
        oracle = float(np.max(np.interp(s, f.breakpoints, F) / np.sqrt(s)))
        assert norm == pytest.approx(oracle, rel=1e-6)
        assert norm >= oracle - 1e-12

    def test_vanishing_weight_rejected(self):
        w = wt.ConcaveWeight(lambda t: np.zeros_like(np.asarray(t, float)), "zero")
        with pytest.raises(wt.WeightError, match="vanishes"):
            wt.marcinkiewicz_norm(sf.constant(1.0), w)

    def test_zero_function(self):
        assert wt.marcinkiewicz_norm(sf.constant(0.0), wt.power_weight(0.5)) == 0.0

    def test_tiny_value_on_a_tiny_cell(self):
        # F(1e-300) = 1e-600 underflows; the norm, F(t)/t at t = 1e-300, does not
        f = sf.step_function([0.0, 1e-300, 1.0], [1e-300, 0.0])
        norm = wt.marcinkiewicz_norm(f, wt.power_weight(1.0))
        assert norm == pytest.approx(1e-300, rel=1e-15, abs=0.0)

    def test_non_concave_weight_rejected(self):
        with pytest.raises(wt.WeightError, match="concave"):
            wt.marcinkiewicz_norm(sf.indicator(0.3), wt.log_g_printed())

    def test_diagnosed_once_per_weight(self):
        calls = []

        def fn(t):
            calls.append(1)
            return np.sqrt(np.asarray(t, float))

        w = wt.custom_weight(fn, "sqrt")
        built = len(calls)
        for _ in range(3):
            wt.marcinkiewicz_norm(sf.indicator(0.3), w)
        assert len(calls) == built + 3  # one evaluation per norm, no new diagnosis

    @given(step_functions())
    @settings(max_examples=40, deadline=None)
    def test_dominates_breakpoint_quotients(self, f):
        # the sup must be >= the quotient at every breakpoint of f*
        w = wt.log_g()
        r = sf.rearrange(f)
        norm = wt.marcinkiewicz_norm(f, w)
        for t in r.breakpoints[1:]:
            q = sf.partial_integral(r, float(t)) / float(w(np.array([t]))[0])
            assert norm >= q - 1e-9 * max(1.0, abs(q))

    @given(step_functions())
    @settings(max_examples=40, deadline=None)
    def test_rearrangement_invariance(self, f):
        w = wt.log_g()
        assert wt.marcinkiewicz_norm(f, w) == pytest.approx(
            wt.marcinkiewicz_norm(sf.rearrange(f), w), rel=1e-9, abs=1e-12
        )


@lru_cache(maxsize=None)
def _sup_weights():
    named = [wt.parse_weight(d) for d in ("power:0.5", "power:1", "logG", "logG1", "logPsi")]
    return tuple(named + [sp.envelope_weight(E) for E in sp.catalog().values()])


class TestMarcinkiewiczBreakpointMax:
    @given(step_functions())
    @example(sf.constant(5e-324))
    @example(sf.constant(2.225073858507203e-309))
    @settings(max_examples=40, deadline=None)
    def test_breakpoint_max_dominates_grid_oracle(self, f):
        r = sf.rearrange(f)
        b = r.breakpoints[1:]
        F = np.cumsum(r.values * np.diff(r.breakpoints))
        s = np.concatenate([np.geomspace(1e-8, 1.0, 100_000), b])
        # the grid oracle interpolates F scaled by an exact power of two, so
        # that a subnormal F (f = 5e-324) keeps its digits in the interpolation
        k = -math.frexp(float(r.values[0]))[1]
        F_s = np.interp(s, r.breakpoints, np.ldexp(np.concatenate(([0.0], F)), k))
        for w in _sup_weights():
            norm, argmax = wt.marcinkiewicz_sup(f, w)
            if r.is_zero():
                assert (norm, argmax) == (0.0, 1.0)
                continue
            q = F / w(b)
            i = int(np.argmax(q))
            assert norm == q[i] and argmax == b[i], w
            oracle = math.ldexp(float(np.max(F_s / w(s))), -k)
            assert norm >= oracle * (1.0 - 1e-12), w


class TestRowsMatchReference:
    @given(st.lists(batch_functions(), min_size=1, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_lorentz_and_marcinkiewicz_rows_bitwise(self, fns):
        try:
            [reference_rearrange(f) for f in fns]
        except sf.StepFunctionError:
            return  # TestRearrangeRows checks that the rows raise as well
        rows = sf.StepRows.stack(fns)
        for w in _sup_weights():
            norms, at = wt.marcinkiewicz_sup_rows(rows, w)
            lorentz = wt.lorentz_norm_rows(rows, w)
            for i, f in enumerate(fns):
                one = sf.StepRows.of(f)
                sup = reference_marcinkiewicz_sup(f, w)
                alone = wt.marcinkiewicz_sup_rows(one, w)
                assert bits(norms[i], at[i]) == bits(*sup) == bits(alone[0][0], alone[1][0]), w
                assert bits(*wt.marcinkiewicz_sup(f, w)) == bits(*sup), w
                norm = reference_lorentz_norm(f, w)
                assert bits(lorentz[i]) == bits(norm) == bits(wt.lorentz_norm_rows(one, w)[0]), w
                assert bits(wt.lorentz_norm(f, w)) == bits(norm), w


class TestWeightFormulas:
    def test_log_g1_closed_form(self):
        w = wt.log_g1()
        for t in (1e-6, 0.25, 1.0):
            want = 2.0 / math.sqrt(math.log(math.e**2 / t))
            assert float(w(np.array([t]))[0]) == pytest.approx(want, rel=1e-14)

    def test_log_psi_closed_form(self):
        w = wt.log_psi()
        for t in (1e-6, 0.25, 1.0):
            want = 2.0 / math.sqrt(math.log(math.e**4 / t))
            assert float(w(np.array([t]))[0]) == pytest.approx(want, rel=1e-14)

    def test_log_g_closed_form(self):
        w = wt.log_g()
        for t in (1e-6, 0.25, 1.0):
            want = t * math.sqrt(math.log(math.e / t))
            assert float(w(np.array([t]))[0]) == pytest.approx(want, rel=1e-14)

    def test_weights_vanish_at_zero(self):
        for w in (wt.log_g(), wt.log_g1(), wt.log_psi(), wt.power_weight(0.5)):
            assert float(w(np.array([0.0]))[0]) == 0.0
