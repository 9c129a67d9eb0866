"""Sign-sum enumeration kernel.

Every sign vector's sum is accumulated left to right from `start` over the
coefficients, so callers may compare the multiset of sums bitwise.
"""

from __future__ import annotations

import numpy as np


def enumerate_signed_sums(coeffs: np.ndarray, start: float = 0.0) -> np.ndarray:
    """All 2^n values of start + sum_i eps_i * coeffs[i] over sign vectors eps."""
    coeffs = np.ascontiguousarray(coeffs, dtype=np.float64)
    vals = np.full(1, start, dtype=np.float64)
    for a in coeffs:
        vals = np.concatenate([vals + a, vals - a])
    return vals
