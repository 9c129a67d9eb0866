"""Closed forms against a 50-digit oracle, down to t = 1e-300.

The float64 oracles inside the suites cannot check values this small; mpmath
evaluates each formula at the exact double t and the result is compared with
the float64 evaluator.
"""

import numpy as np
import pytest

from rispaces import weights as w
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
