"""Closed forms against a 50-digit oracle, down to t = 1e-300, and Lorentz
and Marcinkiewicz norms against a 40-digit one.

The float64 oracles inside the suites cannot check values this small; mpmath
evaluates each formula at the exact double t and the result is compared with
the float64 evaluator.
"""

import numpy as np
import pytest

from rispaces import stepfn as sf
from rispaces import weights as w
from rispaces.experiments import random_step_function
from rispaces.spaces import fundamental_function, space_G

mpmath = pytest.importorskip("mpmath")

TS = np.geomspace(1e-300, 1.0, 601)
RTOL = 1e-15


def _worst_rel_err(got, formula) -> float:
    worst = 0.0
    with mpmath.workdps(50):
        for g, t in zip(got, TS):
            ref = formula(mpmath.mpf(float(t)))
            worst = max(worst, float(abs(mpmath.mpf(float(g)) - ref) / abs(ref)))
    return worst


def test_exp_square_fundamental_function():
    got = fundamental_function(space_G(), TS)
    assert _worst_rel_err(got, lambda t: 1 / mpmath.sqrt(mpmath.log1p(1 / t))) <= RTOL


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
