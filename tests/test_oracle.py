"""Closed forms against a 50-digit oracle, down to t = 1e-300 (the G indicator
norm down to 5e-324), and Lorentz, Marcinkiewicz, Luxemburg and Lp norms
against a 40-digit one.

The float64 oracles inside the suites cannot check values this small; mpmath
evaluates each formula at the exact double t and the result is compared with
the float64 evaluator.
"""

import numpy as np
import pytest

from rispaces import orlicz as ol
from rispaces import stepfn as sf
from rispaces import weights as w
from rispaces.experiments import random_step_function
from rispaces.spaces import fundamental_function, lp_space, orlicz_space, ri_norm_rows, space_G

mpmath = pytest.importorskip("mpmath")

TS = np.geomspace(1e-300, 1.0, 601)
RTOL = 1e-15


def _worst_rel_err(got, formula, ts=TS) -> float:
    worst = 0.0
    with mpmath.workdps(50):
        for g, t in zip(got, ts):
            ref = formula(mpmath.mpf(float(t)))
            worst = max(worst, float(abs(mpmath.mpf(float(g)) - ref) / abs(ref)))
    return worst


def test_exp_square_fundamental_function():
    # below 1/DBL_MAX, where 1/t overflows in float64
    ts = np.concatenate((TS, np.geomspace(1e-300, 5e-324, 60)[1:]))
    got = fundamental_function(space_G(), ts)
    assert _worst_rel_err(got, lambda t: 1 / mpmath.sqrt(mpmath.log1p(1 / t)), ts) <= RTOL


@pytest.mark.parametrize(
    "weight, formula",
    [
        (w.log_g(), lambda t: t * mpmath.sqrt(1 - mpmath.log(t))),
        (w.log_g1(), lambda t: 2 / mpmath.sqrt(2 - mpmath.log(t))),
        (w.log_psi(), lambda t: 2 / mpmath.sqrt(4 - mpmath.log(t))),
    ],
    ids=["logG", "logG1", "logPsi"],
)
def test_log_weights(weight, formula):
    assert _worst_rel_err(weight(TS), formula) <= RTOL


# --- Lorentz and Marcinkiewicz norms against the exact rearrangement ----------

_MP_WEIGHTS = {
    "logG": lambda t: t * mpmath.sqrt(1 - mpmath.log(t)),
    "logG1": lambda t: 2 / mpmath.sqrt(2 - mpmath.log(t)),
    "logPsi": lambda t: 2 / mpmath.sqrt(4 - mpmath.log(t)),
    "power:0.5": mpmath.sqrt,
}


def _oracle_functions():
    """300 random step functions of seed 7, one in three scaled by 10^k for k
    in [-300, 300), then 100 indicators from t = 1e-300 to 1."""
    rng = np.random.default_rng(7)
    fns = []
    for j in range(300):
        f = random_step_function(rng)
        fns.append(f.scale(10.0 ** int(rng.integers(-300, 300))) if j % 3 == 0 else f)
    return fns + [sf.indicator(float(t)) for t in np.geomspace(1e-300, 1.0, 100)]


def _exact_norms(f, phi):
    """(Lorentz, Marcinkiewicz) norms of f for the weight phi: the sum of
    v_i (phi(T_i) - phi(T_{i-1})) and the largest F(T_i)/phi(T_i), over the
    exact rearrangement, whose breakpoints T_i are the exact partial sums of
    the exact interval lengths of f."""
    b = [mpmath.mpf(float(x)) for x in f.breakpoints]
    pieces = sorted(
        ((abs(mpmath.mpf(float(v))), b[i + 1] - b[i]) for i, v in enumerate(f.values)),
        key=lambda p: -p[0],
    )
    T, F, w_prev = mpmath.mpf(0), mpmath.mpf(0), mpmath.mpf(0)
    terms, sup = [], mpmath.mpf(0)
    for v, length in pieces:
        if v == 0:
            break
        T, F = T + length, F + v * length
        w = phi(T)
        terms.append(v * (w - w_prev))
        w_prev = w
        sup = max(sup, F / w)
    return mpmath.fsum(terms), sup


def test_lorentz_and_marcinkiewicz_norms():
    worst = 0.0
    fns = _oracle_functions()
    with mpmath.workdps(40):
        for name, phi in _MP_WEIGHTS.items():
            weight = w.parse_weight(name)
            for f in fns:
                lorentz, marcinkiewicz = _exact_norms(f, phi)
                for got, ref in ((w.lorentz_norm(f, weight), lorentz),
                                 (w.marcinkiewicz_norm(f, weight), marcinkiewicz)):
                    if ref == 0:
                        assert got == 0.0
                        continue
                    worst = max(worst, float(abs(mpmath.mpf(got) - ref) / ref))
    assert worst <= RTOL


# --- Luxemburg and Lp norms against the exact modular and power sum -----------

LUXEMBURG_RTOL = 1e-12  # the root finder's tolerance
LP_RTOL = 1e-13

_MP_PHIS = {
    "exp2": lambda s: mpmath.expm1(s * s),
    "power:1": lambda s: s,
    "power:2": lambda s: s * s,
    "power:3.5": lambda s: s ** mpmath.mpf(3.5),
    "hinge:1": lambda s: max(s - 1, 0),
}


def _exact_cells(f):
    """(|v_i|, l_i) of f, the lengths the differences of its breakpoints."""
    b = [mpmath.mpf(float(x)) for x in f.breakpoints]
    return [(abs(mpmath.mpf(float(v))), b[i + 1] - b[i]) for i, v in enumerate(f.values)]


def _exact_modular(cells, phi, lam):
    """sum_i l_i Phi(|v_i| / lam), in the working precision."""
    return mpmath.fsum(length * phi(v / lam) for v, length in cells)


def _exact_luxemburg(cells, phi, near):
    """The root of the exact modular at 1, bisected to 1e-17 from a bracket
    about the float norm `near`."""
    near, width = mpmath.mpf(near), mpmath.mpf(1e-11)
    while not (_exact_modular(cells, phi, near * (1 - width)) > 1
               >= _exact_modular(cells, phi, near * (1 + width))):
        width *= 16
        assert width < 0.5, "the float norm is not within a factor 2 of the root"
    lo, hi = near * (1 - width), near * (1 + width)
    while hi - lo > 1e-17 * hi:
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if _exact_modular(cells, phi, mid) > 1 else (lo, mid)
    return hi


def _luxemburg_cases(name):
    """(Phi, functions, their Luxemburg norms by `ri_norm_rows`): every fourth
    oracle function, and for exp2 the indicators of three sets below 1e-299."""
    fns = _oracle_functions()[::4]
    if name == "exp2":
        fns += [sf.indicator(t) for t in (1e-300, 1e-305, 1e-308)]
    phi = ol.parse_orlicz(name)
    return phi, fns, ri_norm_rows(sf.StepRows.stack(fns), orlicz_space(phi))


@pytest.mark.parametrize("name", sorted(_MP_PHIS))
def test_luxemburg_norms(name):
    phi, fns, norms = _luxemburg_cases(name)
    worst = 0.0
    with mpmath.workdps(40):
        for f, got in zip(fns, norms):
            assert got == ol.luxemburg_norm(f, phi)  # the rows path, bit for bit
            cells = _exact_cells(f)
            if got == 0.0:
                assert all(v == 0 for v, _ in cells)
                continue
            truth = _exact_luxemburg(cells, _MP_PHIS[name], float(got))
            worst = max(worst, float(abs(mpmath.mpf(float(got)) - truth) / truth))
    assert worst <= LUXEMBURG_RTOL


# A power Phi returns the float Lp norm once the float modular reads <= 1
# there; rounded below the norm, its exact modular exceeds 1 (by up to
# 4.5e-16 on these inputs).
_ROUNDED_LP = pytest.mark.xfail(strict=True, reason="the float Lp norm may round below the norm")


@pytest.mark.parametrize("name", ["exp2", "hinge:1", *(
    pytest.param(n, marks=_ROUNDED_LP) for n in ("power:1", "power:2", "power:3.5"))])
def test_exact_modular_at_the_norm_is_at_most_one(name):
    _, fns, norms = _luxemburg_cases(name)
    with mpmath.workdps(40):
        for f, got in zip(fns, norms):
            assert _exact_modular(_exact_cells(f), _MP_PHIS[name], mpmath.mpf(float(got))) <= 1


@pytest.mark.parametrize("p", [1.0, 2.0, 3.5, 4.0 / 3.0, np.inf])
def test_lp_norms(p):
    fns = _oracle_functions()
    norms = ri_norm_rows(sf.StepRows.stack(fns), lp_space(p))
    worst = 0.0
    with mpmath.workdps(40):
        for f, got in zip(fns, norms):
            assert got == sf.lp_norm(f, p)  # the rows path, bit for bit
            cells = _exact_cells(f)
            if p == np.inf:
                truth = max(v for v, _ in cells)
            else:
                q = mpmath.mpf(p)
                truth = mpmath.fsum(length * v**q for v, length in cells) ** (1 / q)
            if truth == 0:
                assert got == 0.0
                continue
            worst = max(worst, float(abs(mpmath.mpf(float(got)) - truth) / truth))
    assert worst <= LP_RTOL
