"""End-to-end acceptance gate.

Each test runs one numbered criterion through the public verification suites
at its stated tolerances and prints a single pass/fail line. Everything is
deterministic: fixed seeds, exact enumeration, no sampling error.
"""

import math

from rispaces import experiments as ex
from rispaces.spaces import space_G


def _verdict(number: int, label: str, ok: bool) -> None:
    print(f"criterion {number} ({label}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({label}) failed"


def test_criterion_01_rearrangement():
    rep = ex.rearrangement_report(trials=10_000, seed=42)
    ok = (
        rep.passed
        and rep.summary["idempotence_failures"] == 0
        and rep.summary["max_measure_dev"] <= 1e-12
        and rep.summary["max_integral_dev"] <= 1e-12
    )
    _verdict(1, "rearrangement exactness on 10000 random functions", ok)


def test_criterion_02_luxemburg_closed_forms():
    rep = ex.luxemburg_report(trials=1000, grid=100, seed=42)
    ok = (
        rep.passed
        and rep.summary["max_closed_form_rel_err"] <= 1e-9
        and rep.summary["max_lp_rel_err"] <= 1e-9
    )
    _verdict(2, "Luxemburg norm vs closed forms at 1e-9", ok)


def test_criterion_03_fundamental_identities():
    rep = ex.fundamental_report(grid=50, oracle_points=1_000_000)
    ok = rep.passed and all(
        r["lorentz_exact"]
        and r["max_marcinkiewicz_rel_err"] <= 1e-8
        and r["max_oracle_rel_err"] <= 1e-8
        and r["max_product_rel_err"] <= 1e-8
        for r in rep.rows
    )
    _verdict(3, "fundamental-function identities at 1e-8", ok)


def test_criterion_04_sqrt_n_growth():
    rep = ex.theorem1_report(
        space_G(), n_max=16, trials=200, seed=42, random_n_max=14
    )
    ok = (
        rep.passed
        and rep.summary["equal_window_ratio"] <= 3.0
        and rep.summary["stabilization"] < 0.05
        and rep.summary["random_window_ratio"] <= 4.0
    )
    _verdict(4, "sqrt(n) growth windows for Rademacher sums", ok)


def test_criterion_05_sign_inequality():
    rep = ex.sign_selection_report(trials=1000, n_max=10, seed=42)
    ok = rep.passed and rep.summary["violations"] == 0
    _verdict(5, "sign inequality, 1000 exhaustive instances", ok)


def test_criterion_06_derandomization_pigeonhole():
    rep = ex.derandomization_report(trials=200, n_max=12, seed=42)
    ok = rep.passed and rep.summary["pigeonhole_failures"] == 0
    _verdict(6, "derandomized signs beat the average modular", ok)


def test_criterion_07_envelope():
    rep = ex.envelope_lemma_check(trials=1000, seed=42, indicator_trials=500)
    ok = rep.passed and all(r["pass"] for r in rep.rows)
    _verdict(7, "envelope domination and indicator equality", ok)


def test_criterion_08_indicator_chain():
    rep = ex.g1_chain_check(trials=1000, seed=42)
    spot_target = 1.0 / math.sqrt(math.log(2.0))
    ok = (
        rep.passed
        and math.isfinite(rep.summary["c_indicator"])
        and rep.summary["c_indicator"] >= 1.2011
        and abs(rep.summary["spot_t1"] - spot_target) <= 1e-4
        and math.isfinite(rep.summary["c_prime"])
        and rep.summary["drift"] < 0.10
    )
    _verdict(8, "indicator bound, layer cake, measured constant", ok)


def test_criterion_09_indicator_comparison():
    rep = ex.g_g1_indicator_comparison(grid=200)
    lo, hi = rep.summary["ratio_window"]
    ok = (
        rep.params == {"grid_size": 200, "t_min": 1e-6}
        and rep.passed
        and lo >= 0.25
        and hi <= 4.0
        and abs(rep.summary["small_t_ratio_G_over_G1"] - 0.5) <= 0.05
    )
    _verdict(9, "indicator-norm ratios in [1/4, 4] with 1/2 limit", ok)


def test_criterion_10_hinge_sandwich():
    rep = ex.hinge_sandwich_report(trials=1000, seed=42, oracle_instances=20)
    ok = (
        rep.passed
        and rep.summary["violations"] == 0
        and rep.summary["mu_oracle_max_gap"] <= 1e-10
    )
    _verdict(10, "hinge sandwich with mu-grid oracle", ok)


def test_criterion_11_determinism():
    small = {
        "rearrangement": {"trials": 300, "seed": 9},
        "luxemburg": {"trials": 30, "grid": 20, "seed": 9},
        "fundamental": {"grid": 5, "oracle_points": 10_000},
        "theorem1": {"E": space_G(), "n_max": 5, "trials": 5,
                     "random_n_max": 5, "seed": 9},
        "sign": {"trials": 15, "n_max": 5, "seed": 9},
        "derandomize": {"trials": 8, "n_max": 5, "seed": 9},
        "envelope": {"trials": 20, "indicator_trials": 10, "seed": 9},
        "g1chain": {"trials": 30, "grid": 30, "seed": 9},
        "gg1": {"grid": 30},
        "hinge": {"trials": 30, "oracle_instances": 5, "seed": 9},
    }
    assert set(small) == set(ex.SUITES)
    ok = True
    for name, kwargs in small.items():
        first = ex.run_suite(name, **kwargs).to_json()
        second = ex.run_suite(name, **kwargs).to_json()
        if first != second:
            ok = False
            print(f"suite {name}: reruns differ")
    _verdict(11, "byte-identical reruns of every suite", ok)
