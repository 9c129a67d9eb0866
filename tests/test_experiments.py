import json
import math

import numpy as np
import pytest

from conftest import (
    assert_same_step_function,
    sign_vectors,
    signed_sums,
    validating_canonical,
)
from rispaces import experiments as ex
from rispaces import orlicz as ol
from rispaces import spaces as sp
from rispaces import stepfn as sf


class TestReportPlumbing:
    def test_json_roundtrip(self):
        rep = ex.ExperimentReport(
            "demo", {"k": 1}, rows=[{"a": np.float64(1.5), "b": np.True_}],
            summary={"pass": True}, seed=7,
        )
        data = json.loads(rep.to_json())
        assert data["rows"][0] == {"a": 1.5, "b": True}
        assert data["seed"] == 7
        assert rep.passed

    def test_csv_header_and_rows(self):
        rep = ex.ExperimentReport("demo", {}, rows=[{"x": 1.5, "y": "ok"}])
        lines = rep.to_csv().splitlines()
        assert lines[0] == "x,y"
        assert lines[1] == "1.5,ok"

    def test_text_has_verdict(self):
        rep = ex.ExperimentReport("demo", {}, summary={"pass": False})
        assert rep.to_text().rstrip().endswith("FAIL")


def _reference_step_function(rng, max_plateaus):
    """`random_step_function` with every draw merged by np.unique and the
    validating constructor."""
    k = int(rng.integers(1, max_plateaus + 1))
    breaks = _reference_breaks(rng.uniform(0.0, 1.0, size=k - 1))
    vals = rng.uniform(-1.0, 1.0, size=len(breaks) - 1)
    spikes = rng.random(len(vals)) < ex._SPIKE_PROB
    vals[spikes] *= ex._SPIKE_SCALE
    return sf.StepFunction(breaks, vals)


def _reference_breaks(draws):
    inner = np.unique(draws)
    inner = inner[(inner > 0.0) & (inner < 1.0)]
    return np.concatenate(([0.0], inner, [1.0]))


class _ScriptedRng:
    """Stands in for a Generator: `integers` returns k, each `uniform` the
    next scripted draws, and `random` ones (so no spikes)."""

    def __init__(self, k, *uniforms):
        self.k, self.uniforms = k, list(uniforms)

    def integers(self, low, high):
        return self.k

    def uniform(self, low, high, size):
        draws = np.array(self.uniforms.pop(0), dtype=np.float64)
        assert draws.shape == (size,)
        return draws

    def random(self, size):
        return np.ones(size)


class TestGenerators:
    @pytest.mark.parametrize("max_plateaus", [1, 2, 10])
    def test_random_step_function_matches_validating_constructor(self, max_plateaus):
        for seed in range(300):
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(3):
                f = ex.random_step_function(rng, max_plateaus)
                assert_same_step_function(f, _reference_step_function(ref, max_plateaus))

    @pytest.mark.parametrize("draws", [
        [0.5, 0.0, 0.25, 0.5],  # a zero and a repeat
        [0.0],
        [0.75, 0.75, 0.75],
        [0.0, 0.0, 0.3],
    ])
    def test_random_breaks_fallback_matches_unique(self, draws):
        got = ex._random_breaks(_ScriptedRng(len(draws) + 1, draws), 10)
        assert got.tobytes() == _reference_breaks(np.array(draws)).tobytes()

    def test_equal_neighbouring_values_are_merged(self):
        rng = _ScriptedRng(4, [0.6, 0.2, 0.4], [0.5, 0.5, -0.25, -0.25])
        f = ex.random_step_function(rng)
        assert list(f.breakpoints) == [0.0, 0.4, 1.0]
        assert list(f.values) == [0.5, -0.25]

    def test_sign_suites_unchanged_with_validation(self, monkeypatch):
        def reports():
            return (ex.sign_selection_report(trials=30, n_max=5, seed=3).to_json(),
                    ex.derandomization_report(trials=20, n_max=6, seed=7).to_json())

        fast = reports()
        calls = validating_canonical(monkeypatch)
        assert reports() == fast
        assert len(calls) > 100


class TestSignBruteforce:
    def test_disjoint_indicators_l2(self):
        x1 = sf.indicator(0.5)
        x2 = sf.step_function([0, 0.5, 1], [0.0, 1.0])
        signs, best = ex.sign_bruteforce([x1, x2], sp.lp_space(2.0))
        assert best == pytest.approx(1.0, rel=1e-12)
        assert signs == (1, 1)  # lexicographic tie-break

    def test_single_function(self):
        x = sf.constant(2.0)
        signs, best = ex.sign_bruteforce([x], sp.lp_space(1.0))
        assert signs == (1,)
        assert best == pytest.approx(2.0, abs=1e-15)

    def test_opposite_pair(self):
        x1 = sf.constant(1.0)
        signs, best = ex.sign_bruteforce([x1, -x1], sp.lp_space(1.0))
        assert best == pytest.approx(2.0, abs=1e-14)
        assert signs == (1, -1)

    def test_sign_flip_symmetry(self, rng):
        xs = [ex.random_step_function(rng) for _ in range(4)]
        E = sp.space_G()
        _, a = ex.sign_bruteforce(xs, E)
        _, b = ex.sign_bruteforce([-x for x in xs], E)
        assert a == pytest.approx(b, rel=1e-12)

    def test_orlicz_rowpath_matches_generic(self, rng):
        xs = [ex.random_step_function(rng, max_plateaus=4) for _ in range(5)]
        _, fast = ex.sign_bruteforce(xs, sp.space_G())
        # generic per-row path via a Lorentz space sanity anchor: recompute
        # the winning Orlicz norm directly
        breaks, dl, X = ex._refinement_matrix(xs)
        best = max(
            ol.luxemburg_norm(sf.StepFunction(breaks, row), ol.exp_square())
            for row in signed_sums(X)
        )
        assert fast == pytest.approx(best, rel=1e-10)

    def test_lp_infinity_is_sup(self):
        xs = [sf.constant(2.0), sf.indicator(0.5)]
        assert ex.sign_bruteforce(xs, sp.lp_space(math.inf)) == ((1, 1), 3.0)
        assert ex.sign_bruteforce(xs, sp.linf_space()) == ((1, 1), 3.0)

    def test_cap_enforced(self):
        xs = [sf.constant(1.0)] * (ex.MAX_SIGN_N + 1)
        with pytest.raises(ex.ExperimentError):
            ex.sign_bruteforce(xs, sp.lp_space(1.0))

    @pytest.mark.parametrize("desc", ["G1", "MG", "Lp:3", "Linf"])
    def test_first_maximum_of_scalar_norms(self, desc, rng):
        E = sp.parse_space(desc)
        for _ in range(8):
            n = int(rng.integers(1, 6))
            xs = [ex.random_step_function(rng, max_plateaus=4) for _ in range(n)]
            breaks, _, X = ex._refinement_matrix(xs)
            signs = sign_vectors(n)[: 1 << (n - 1)]
            rows = signed_sums(X[1:], start=X[0])
            norms = [sp.ri_norm(sf.StepFunction(breaks, row), E) for row in rows]
            i = norms.index(max(norms))
            assert ex.sign_bruteforce(xs, E) == (tuple(int(s) for s in signs[i]), norms[i])

    def test_half_sign_sums_match_reference(self, rng):
        # bitwise: each row summed left to right from x_1, eps_1 = +1 only
        for n in (1, 2, 5, 9):
            xs = [ex.random_step_function(rng, max_plateaus=5) for _ in range(n)]
            _, dl, X, S = ex._half_sign_sums(xs)
            assert S.shape == (1 << (n - 1), len(dl))
            assert S.tobytes() == signed_sums(X[1:], start=X[0]).tobytes()


def _avg_modular_reference(base, rest, dl, phi, lam):
    """Average modular over all sign completions of `rest`, summed from the
    partial sum `base` (no shared table of sign sums)."""
    r = len(rest)
    idx = np.arange(1 << r)
    signs = 1.0 - 2.0 * ((idx[:, None] >> np.arange(r - 1, -1, -1)) & 1)
    return float(np.sum(phi((base + signs @ rest) / lam) @ dl)) / (1 << r)


class TestDerandomization:
    def test_opposite_pair_maximizes(self):
        x = sf.constant(1.0)
        signs = ex.derandomized_signs([x, -x], ol.power(2.0), 1.0)
        assert signs in ((1, -1), (-1, 1))

    def test_first_sign_is_plus(self, rng):
        for desc in ex._SIGN_PHIS:
            phi = ol.parse_orlicz(desc)
            for _ in range(10):
                xs = [ex.random_step_function(rng, max_plateaus=5)
                      for _ in range(int(rng.integers(1, 7)))]
                assert ex.derandomized_signs(xs, phi, 2.0)[0] == 1

    def test_first_sign_on_derandomize_case_27(self):
        # case 27 of the derandomize suite at seed 42: n = 3 under power:1,
        # where rounding once made the two equal first-step averages differ
        rng = np.random.default_rng(42)
        for _ in range(28):
            n = int(rng.integers(1, 13))
            xs = [ex.random_step_function(rng, 6) for _ in range(n)]
        assert len(xs) == 3
        _, _, X = ex._refinement_matrix(xs)
        lam = float(np.max(np.abs(X).sum(axis=0)))
        assert ex.derandomized_signs(xs, ol.power(1.0), lam)[0] == 1

    def test_pigeonhole_on_random_instances(self, rng):
        phi = ol.exp_square()
        for _ in range(20):
            n = int(rng.integers(1, 9))
            xs = [ex.random_step_function(rng, max_plateaus=5) for _ in range(n)]
            _, dl, X = ex._refinement_matrix(xs)
            lam = max(float(np.max(np.abs(X).sum(axis=0))), 1e-9)
            signs = ex.derandomized_signs(xs, phi, lam)
            S = signed_sums(X)
            mods = phi(S / lam) @ dl
            greedy = float(np.dot(phi((np.asarray(signs) @ X) / lam), dl))
            assert greedy >= float(np.mean(mods)) * (1.0 - 1e-12) - 1e-300

    def test_rejects_nonpositive_lam(self):
        with pytest.raises(ex.ExperimentError):
            ex.derandomized_signs([sf.constant(1.0)], ol.power(2.0), 0.0)

    @pytest.mark.parametrize("desc", ex._SIGN_PHIS)
    def test_matches_partial_sum_reference(self, desc, rng):
        # along the returned signs, every step whose two conditional averages
        # differ by more than rounding must keep the larger one
        phi = ol.parse_orlicz(desc)
        decided = 0
        for _ in range(30):
            n = int(rng.integers(1, 9))
            xs = [ex.random_step_function(rng, max_plateaus=5) for _ in range(n)]
            _, dl, X = ex._refinement_matrix(xs)
            lam = max(float(np.max(np.abs(X).sum(axis=0))), 1e-9)
            signs = ex.derandomized_signs(xs, phi, lam)
            assert len(signs) == n and signs[0] == 1
            prefix = X[0]
            for i in range(1, n):
                plus = _avg_modular_reference(prefix + X[i], X[i + 1 :], dl, phi, lam)
                minus = _avg_modular_reference(prefix - X[i], X[i + 1 :], dl, phi, lam)
                if abs(plus - minus) > 1e-12 * max(plus, minus):
                    assert signs[i] == (1 if plus > minus else -1)
                    decided += 1
                prefix = prefix + signs[i] * X[i]
        assert decided > 50

    def test_report_statistics_over_all_sign_vectors(self):
        # n = 2: the half table has two rows, and its own 0.75-quantile is
        # not the one over all four sign vectors
        seed, trials = 3, 40
        rep = ex.derandomization_report(trials=trials, n_max=2, seed=seed)
        instances = ex._sign_instances(trials, 2, seed, 6)
        checked = 0
        for row, (xs, phi) in zip(rep.rows, instances):
            if len(xs) != 2:
                continue
            _, dl, X = ex._refinement_matrix(xs)
            mods = phi(signed_sums(X) / row["lam"]) @ dl
            assert row["q75_modular"] == pytest.approx(np.quantile(mods, 0.75), rel=1e-15)
            assert row["avg_modular"] == pytest.approx(np.mean(mods), rel=1e-15)
            checked += 1
        assert checked >= 10

    def test_report_evaluates_phi_twice_per_instance(self, monkeypatch):
        calls = []
        call = ol.OrliczFunction.__call__

        def counted(self, s):
            calls.append(1)
            return call(self, s)

        monkeypatch.setattr(ol.OrliczFunction, "__call__", counted)
        ex.derandomization_report(trials=12, n_max=6, seed=5)
        assert len(calls) == 2 * 12


class TestSingleInequality:
    def test_disjoint_indicators_power2(self):
        x1 = sf.indicator(0.5)
        x2 = sf.step_function([0, 0.5, 1], [0.0, 1.0])
        row = ex._sign_instance([x1, x2], ol.power(2.0))
        assert row["lhs"] == pytest.approx(1.0, rel=1e-11)
        assert row["rhs"] == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-11)
        assert row["pass"] and row["chain_ok"]

    def test_constant_single_function_equality(self):
        row = ex._sign_instance([sf.constant(2.0)], ol.exp_square())
        assert row["lhs"] == pytest.approx(row["rhs"], rel=1e-10)
        assert row["pass"] and row["chain_ok"]


class TestSuitesSmoke:
    def test_registry_names(self):
        assert set(ex.SUITES) == {
            "rearrangement", "luxemburg", "fundamental", "theorem1", "sign",
            "derandomize", "envelope", "g1chain", "gg1", "hinge",
        }

    def test_unknown_suite(self):
        with pytest.raises(ex.ExperimentError):
            ex.run_suite("nonesuch")

    def test_theorem1_l2_ratios_are_one(self):
        rep = ex.theorem1_report(sp.lp_space(2.0), n_max=6, trials=5, random_n_max=6)
        for row in rep.rows:
            assert row["equal_ratio"] == pytest.approx(1.0, rel=1e-10)
        assert rep.passed

    def test_theorem1_random_n_max_is_capped(self):
        with pytest.raises(ex.ExperimentError, match="random_n_max capped"):
            ex.theorem1_report(random_n_max=25)

    def test_theorem1_l1_equal_four(self):
        rep = ex.theorem1_report(sp.lp_space(1.0), n_max=4, trials=0)
        assert rep.rows[3]["equal_ratio"] == pytest.approx(0.75, rel=1e-14)

    def test_small_suite_runs_pass(self):
        assert ex.sign_selection_report(trials=20, n_max=5).passed
        assert ex.derandomization_report(trials=10, n_max=5).passed
        assert ex.envelope_lemma_check(E=sp.lp_space(1.0), trials=30,
                                       indicator_trials=20).passed
        assert ex.hinge_sandwich_report(trials=30, oracle_instances=5).passed
        assert ex.rearrangement_report(trials=200).passed
        assert ex.luxemburg_report(trials=50, grid=20).passed
        assert ex.g_g1_indicator_comparison(grid=40).passed
        # single functions; fewer luxemburg trials than exponents leave some
        # exponent with no function
        assert ex.hinge_sandwich_report(trials=1, oracle_instances=0).passed
        assert ex.rearrangement_report(trials=1).passed
        assert ex.luxemburg_report(trials=1).passed
        assert ex.luxemburg_report(trials=3).passed

    def test_batch_suites_make_no_one_row_calls(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a one-row call")

        for owner, name in ((sf.StepRows, "row"), (ex, "rearrange"), (ol, "luxemburg_norm")):
            monkeypatch.setattr(owner, name, refuse)
        assert ex.rearrangement_report(trials=200).passed
        assert ex.luxemburg_report(trials=50, grid=20).passed  # Luxemburg rows: ri_norm_rows
        # the hinge norm is a closed form: no hinge Phi and no root find
        monkeypatch.setattr(sp._orlicz, "hinge", refuse)
        monkeypatch.setattr(sp._orlicz, "luxemburg_norm_max", refuse)
        assert ex.hinge_sandwich_report(trials=30).passed

    def test_mu_oracle_catches_a_zero_a(self, monkeypatch):
        # A = 0 on functions that are not 0: the oracle's min penalty is not 0
        def zero_a(rows, ts):
            return [sp.HingeBound(0.0, 0.0, 0.0) for _ in ts]

        monkeypatch.setattr(ex, "hinge_family_bounds", zero_a)
        rep = ex.hinge_sandwich_report(trials=5, oracle_instances=5)
        assert rep.summary["mu_oracle_max_gap"] == math.inf
        assert not rep.passed

    def test_idempotence_failures_are_counted(self, monkeypatch):
        # the second rearrangement of the batch moves one value by an ulp
        calls = []

        def perturbing(rows):
            out = sf.rearrange_rows(rows)
            calls.append(rows)
            if len(calls) == 2:
                out = sf.StepRows(out.breakpoints, out.values.copy(), out.counts)
                out.values[3, 0] = np.nextafter(out.values[3, 0], np.inf)
            return out

        monkeypatch.setattr(ex, "rearrange_rows", perturbing)
        rep = ex.rearrangement_report(trials=200)
        assert len(calls) == 2
        assert rep.summary["idempotence_failures"] == 1
        assert not rep.passed

    def test_envelope_reuses_the_catalog_checks_and_weights(self, monkeypatch):
        # the closed forms of the catalog spaces are cross-checked against
        # generic indicator norms, and their envelope weights built, once
        def run():
            return ex.envelope_lemma_check(trials=5, indicator_trials=5).to_json()

        first = run()
        made = []
        monkeypatch.setattr(sp, "indicator", lambda t: made.append(t) or sf.indicator(t))
        assert run() == first
        assert made == []
        for E in sp.catalog().values():
            assert sp.envelope_weight(E) is sp.envelope_weight(E)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_envelope_of_a_hinge_near_the_largest_double(self):
        # the weight diagnostics average envelope values near DBL_MAX
        E = sp.parse_space("orlicz:hinge:1e308")
        assert ex.envelope_lemma_check(E, trials=3, indicator_trials=3).passed

    def test_determinism_same_seed(self):
        a = ex.derandomization_report(trials=8, n_max=4, seed=11).to_json()
        b = ex.derandomization_report(trials=8, n_max=4, seed=11).to_json()
        assert a == b

    def test_seed_changes_rows(self):
        a = ex.sign_selection_report(trials=8, n_max=4, seed=1).to_json()
        b = ex.sign_selection_report(trials=8, n_max=4, seed=2).to_json()
        assert a != b
